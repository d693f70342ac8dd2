"""A resident Scoop deployment: the trial loop as a long-lived facade.

Historically the only way to ask Scoop a question was to run a batch
trial to completion inside the experiment runner's monolithic loop.
:class:`Deployment` breaks that loop into a public lifecycle —

* :meth:`Deployment.create` wires topology, network, motes, workload and
  failure schedule from one :class:`~repro.experiments.runner.ExperimentSpec`
  (the wiring previously duplicated across the runner and example
  scripts);
* :meth:`~Deployment.boot` and :meth:`~Deployment.stabilize` run the
  paper's warm-up phases (boot + tree stabilization, then sampling and
  periodic remaps);
* :meth:`~Deployment.advance` steps the kernel by wall-relative
  simulated time, keeping the network resident between steps;
* :meth:`~Deployment.query` injects an externally supplied query into
  the basestation mid-flight and returns the structured
  :class:`~repro.core.query.QueryResult` — no tuple or dict
  side-channels.

The batch runner (:func:`repro.experiments.runner.run_experiment`) is a
thin driver over this facade and is byte-identical to the pre-facade
monolith: every simulator call happens in the same order, so trial
trajectories (and the persistent result cache) are unchanged. The
serving layer keeps one ``Deployment`` per tenant (in a shard worker, or
in process for the load driver) and multiplexes the tenant's client
query stream over it through :mod:`repro.service.gateway`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.basestation import Basestation
from repro.core.config import ScoopConfig
from repro.core.node import ScoopNode
from repro.core.query import Query, QueryResult
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    _collect,
    build_failure_schedule,
    build_motes,
    build_topology,
    build_workload,
)
from repro.sim.failure import FailureInjector
from repro.sim.network import Network
from repro.sim.topology import Topology
from repro.workloads.queries import QueryGenerator

#: Lifecycle phases, in order. Misusing the lifecycle (querying before
#: the deployment serves, booting twice) raises with a clear message
#: instead of silently producing a half-wired network.
_PHASES = ("created", "booted", "live", "drained")


class Deployment:
    """One wired, resident Scoop network driven by simulated time.

    Build with :meth:`create`; never construct directly — the
    constructor takes already-wired components and exists so ``create``
    stays the single wiring path.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        net: Network,
        base: Basestation,
        nodes: List[ScoopNode],
    ):
        self.spec = spec
        self.net = net
        self.base = base
        self.nodes = nodes
        #: queries issued so far — internal stream ticks plus external
        #: :meth:`query` calls (the batch runner's ``queries_issued``).
        self.queries_issued = 0
        #: serving-layer metrics attached by the load driver
        #: (:func:`repro.service.loadtest.drive_load`); exported through
        #: ``TrialMetrics.service``.
        self.service_stats: Dict[str, float] = {}
        self._phase = "created"
        self._generator: Optional[QueryGenerator] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, spec: ExperimentSpec, topology: Optional[Topology] = None
    ) -> "Deployment":
        """Wire a deployment from a spec: topology, network, workload,
        motes (via the policy registry) and the churn schedule.

        This is the consolidated wiring path — example scripts and the
        batch runner both go through here, so a spec means the same
        network everywhere. ``topology`` overrides the spec's generated
        one (it must match ``spec.scoop.n_nodes``).
        """
        config = spec.scoop
        topo = topology if topology is not None else build_topology(spec)
        if topo.n != config.n_nodes:
            raise ValueError(
                f"topology has {topo.n} nodes but config expects {config.n_nodes}"
            )
        if spec.query_plan.n_attributes > config.n_attributes:
            raise ValueError(
                f"query plan names {spec.query_plan.n_attributes} attributes but "
                f"the config registers {config.n_attributes}"
            )
        net = Network(topo, seed=spec.seed)
        workload = build_workload(spec, topo)
        base, nodes = build_motes(spec, net, workload)
        # Failure injection (E14): arm the churn schedule before anything
        # runs; kills/revives then fire on the simulation clock mid-workload.
        schedule = build_failure_schedule(spec)
        if schedule is not None:
            FailureInjector(net, schedule).arm()
        return cls(spec, net, base, nodes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def config(self) -> ScoopConfig:
        return self.spec.scoop

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.net.sim.now

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def index_epoch(self) -> int:
        """The basestation's remap epoch (its shared sid counter).

        Bumps whenever a remap disseminates new storage indexes; the
        gateway's answer cache keys on it so cached answers
        self-invalidate the moment the mapping changes.
        """
        return self.base.index_epoch

    def _require(self, phase: str, doing: str) -> None:
        if self._phase != phase:
            raise RuntimeError(
                f"cannot {doing} while the deployment is {self._phase!r}; "
                f"lifecycle is create() -> boot() -> stabilize() -> "
                f"advance()/query() -> drain() -> collect()"
            )

    def boot(self) -> None:
        """Boot every mote (staggered within one beacon interval)."""
        self._require("created", "boot()")
        self.net.boot_all(within=self.config.beacon_interval)
        self._phase = "booted"

    def stabilize(self) -> None:
        """Run the warm-up (paper: 10 minutes of heartbeats), then start
        sampling and periodic index remaps. The deployment serves
        queries from here on."""
        self._require("booted", "stabilize()")
        config = self.config
        self.net.run(config.stabilization)
        for node in self.nodes:
            node.start_sampling()
        self.base.start_scoop()
        self._generator = QueryGenerator(
            self.spec.query_plan,
            [config.domain_of(a) for a in config.attribute_ids],
            list(config.sensor_ids),
            rng=self.net.sim.rng,
        )
        self._phase = "live"

    def start_query_stream(self) -> None:
        """Schedule the internal query stream (one generator query per
        ``query_interval``, stopping at the end of the measured phase) —
        the batch trials' workload. Externally driven deployments (the
        gateway, the load driver) skip this and call :meth:`query`."""
        self._require("live", "start_query_stream()")
        net, base, config = self.net, self.base, self.config
        generator = self._generator

        def query_tick() -> None:
            if net.sim.now >= config.stabilization + config.duration:
                return
            base.issue_query(generator.next_query(net.sim.now))
            self.queries_issued += 1
            net.sim.schedule(config.query_interval, query_tick)

        net.sim.schedule(config.query_interval, query_tick)

    def advance(self, dt: float) -> None:
        """Step the kernel ``dt`` simulated seconds forward."""
        if dt < 0:
            raise ValueError(f"cannot advance by negative time ({dt})")
        self.net.run(self.net.sim.now + dt)

    def run_until(self, t: float) -> None:
        """Step the kernel to absolute simulated time ``t`` (no-op when
        the clock is already past it)."""
        if t > self.net.sim.now:
            self.net.run(t)

    # ------------------------------------------------------------------
    # External queries
    # ------------------------------------------------------------------
    def query(
        self,
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
        nodes: Optional[frozenset] = None,
        wait: bool = True,
    ) -> QueryResult:
        """Inject an externally supplied query mid-flight.

        Builds a validated :class:`~repro.core.query.Query` — the named
        attribute must be registered and ``[lo, hi]`` must sit inside its
        domain (malformed queries raise, they never return an empty
        answer) — and issues it through the basestation. ``lo``/``hi``
        default to the attribute's domain bounds; ``time_range`` defaults
        to the query plan's look-back window ending now. With ``wait``
        (the default) the kernel advances through the reply window so the
        returned result is closed; ``wait=False`` returns the open result
        for callers that batch several queries per window (the gateway).
        """
        self._require("live", "query()")
        config = self.config
        now = self.net.sim.now
        domain = config.domain_of(attr)
        if time_range is None:
            time_range = (max(0.0, now - self.spec.query_plan.time_window), now)
        value_range: Optional[Tuple[int, int]] = None
        if nodes is None and (lo is not None or hi is not None):
            value_range = (
                domain.lo if lo is None else int(lo),
                domain.hi if hi is None else int(hi),
            )
        query = Query(
            time_range=time_range,
            value_range=value_range,
            node_list=frozenset(nodes) if nodes else None,
            attr=attr,
            domain=domain,
        )
        result = self.base.issue_query(query)
        self.queries_issued += 1
        if wait and not result.closed:
            self.net.run(now + config.query_reply_window)
        return result

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """End the measured phase: flush batches, let in-flight frames
        and open reply windows land."""
        self._require("live", "drain()")
        for node in self.nodes:
            if node.booted:  # dead nodes have nothing to stop or flush
                node.stop_sampling()
        self.net.run(self.net.sim.now + self.config.query_reply_window + 5.0)
        self._phase = "drained"

    def collect(self, wall_clock_s: float = 0.0) -> ExperimentResult:
        """Fold the deployment's accounting into an
        :class:`~repro.experiments.runner.ExperimentResult` (the batch
        trials' measurement record)."""
        return _collect(
            self.spec,
            self.net,
            self.base,
            self.queries_issued,
            wall_clock_s=wall_clock_s,
            service=self.service_stats or None,
        )
