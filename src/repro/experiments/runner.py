"""End-to-end experiment runner: policy × workload × parameters → counts.

This is the reproduction's equivalent of the paper's testbed/TOSSIM driver:
it wires a topology, a storage policy (SCOOP, LOCAL, BASE, or simulated
HASH), a data workload and a query stream into one
:class:`~repro.sim.network.Network`, runs the paper's timeline (boot →
10-minute stabilization → 40-minute measured phase), and returns the
message census broken down into the paper's categories plus the delivery
and energy statistics the text reports.

The analytical HASH evaluation (the paper's own methodology for that
baseline) is exposed as :func:`run_hash_analytical`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.hash_static import AnalyticalHashModel
from repro.core.basestation import Basestation
from repro.core.config import (
    ScoopConfig,
    canonical_key,
    dataclass_from_dict,
    dataclass_to_dict,
)
from repro.core.node import ScoopNode
from repro.experiments.registry import is_registered, known_policies, policy_factory
from repro.experiments.salt import cache_salt
from repro.sim.failure import FailureSchedule
from repro.sim.metrics import TrialMetrics
from repro.sim.network import Network
from repro.sim.topology import (
    Topology,
    degrade,
    indoor_testbed,
    line,
    near_square_grid,
    random_geometric,
)
from repro.experiments.oracle import score_trial
from repro.workloads import WORKLOAD_NAMES, MultiAttributeWorkload, Workload
from repro.workloads.queries import QueryPlanConfig

#: The storage policies of the paper's experiments (Section 6 table). The
#: live set (including plug-in policies) is
#: :func:`repro.experiments.registry.known_policies`.
POLICIES = ("scoop", "local", "base", "hash")

#: Topology profiles an :class:`ExperimentSpec` can name (all built from
#: the generators in :mod:`repro.sim.topology`).
TOPOLOGY_KINDS = ("testbed", "geometric", "line", "grid")

#: Bumped whenever spec/result serialization changes shape, so stale
#: entries in the persistent result cache miss instead of deserializing
#: garbage. v2: results carry a structured :class:`TrialMetrics` record
#: and keys are salted with the source-tree hash (:mod:`.salt`). v3:
#: specs grew churn fields (E14), metrics grew the data-survival
#: breakdown, results grew ``retrieval_completeness``. v4: the
#: multi-attribute schema (E15) — configs carry an attribute registry,
#: query plans an attribute count, and metrics per-attribute counters
#: plus the query-oracle scorecard. v5: metrics carry a ``timing`` record
#: (simulator event counts/throughput) and the radio draws its randomness
#: from a dedicated batched stream, which changes trial trajectories. v6:
#: specs grew the serving-layer knobs (E16: ``service_qps`` and the
#: gateway limits) and metrics a ``service`` scorecard. v7: metrics
#: carry a per-shard serving breakdown. v8: the spec keeps only the
#: fields some experiment varies — 17 fields the paper fixes or nothing
#: reads leave ``ScoopConfig``, the gateway limits leave the spec,
#: ``popularity_bias`` leaves the query plan and the per-shard breakdown
#: leaves the metrics; no trial moves.
SPEC_SCHEMA_VERSION = 8


@dataclass
class ExperimentSpec:
    """Everything that defines one trial."""

    policy: str = "scoop"
    workload: str = "real"
    scoop: ScoopConfig = field(default_factory=ScoopConfig)
    query_plan: QueryPlanConfig = field(default_factory=QueryPlanConfig)
    seed: int = 0
    #: Topology profile: "testbed" (the 62+1 indoor layout), "geometric"
    #: (the simulated ~20%-degree profile), "line" (1-D chain) or "grid"
    #: (near-square lattice); or pass an explicit topology to
    #: run_experiment.
    topology_kind: str = "testbed"
    #: Additional independent per-frame loss applied to every audible
    #: link of the generated topology (the loss-sweep knob; see
    #: :func:`repro.sim.topology.degrade`). 0 = the generator's native
    #: loss regime — which is 0 for the lossless line/grid lattices.
    link_loss: float = 0.0
    #: Node churn (E14): fraction of the sensor population killed at
    #: seeded random times during the measured phase
    #: (:class:`repro.sim.failure.FailureSchedule`). 0 = no failure
    #: injection.
    churn_rate: float = 0.0
    #: Of the killed nodes, the fraction that cold-reboot after
    #: ``churn_downtime_frac`` of the measured duration (flash intact,
    #: RAM state lost).
    churn_revive_frac: float = 0.0
    #: Downtime of reviving nodes, as a fraction of the measured
    #: duration — relative, so time-scaled runs keep the same churn
    #: dynamics.
    churn_downtime_frac: float = 0.25
    #: Run the HASH policy through the full simulator instead of the
    #: paper's analytical model. The multi-attribute grid (E15) sets
    #: this so every cell carries the same structured metrics
    #: (per-attribute counters, oracle scorecard); the paper scenarios
    #: keep the analytical evaluation.
    hash_simulated: bool = False
    #: Serving load (E16): offered external query rate in requests per
    #: simulated second. 0 = a plain batch trial (the internal
    #: generator's query stream); > 0 replaces that stream with the
    #: deterministic load-test driver
    #: (:func:`repro.service.loadtest.drive_load`) and exports the
    #: serving scorecard through ``TrialMetrics.service``.
    service_qps: float = 0.0

    def __post_init__(self) -> None:
        if not is_registered(self.policy):
            raise ValueError(
                f"unknown policy {self.policy!r}; one of {known_policies()}"
            )
        if self.workload not in WORKLOAD_NAMES:
            raise ValueError(
                f"unknown workload {self.workload!r}; one of {WORKLOAD_NAMES}"
            )
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.topology_kind!r}; "
                f"one of {TOPOLOGY_KINDS}"
            )
        if not 0.0 <= self.link_loss < 1.0:
            raise ValueError(f"link_loss must be in [0, 1), got {self.link_loss}")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError(f"churn_rate must be in [0, 1], got {self.churn_rate}")
        if not 0.0 <= self.churn_revive_frac <= 1.0:
            raise ValueError(
                f"churn_revive_frac must be in [0, 1], got {self.churn_revive_frac}"
            )
        if not 0.0 < self.churn_downtime_frac <= 1.0:
            raise ValueError(
                f"churn_downtime_frac must be in (0, 1], got "
                f"{self.churn_downtime_frac}"
            )
        if self.service_qps < 0:
            raise ValueError(f"service_qps must be >= 0, got {self.service_qps}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping; inverse of :meth:`from_dict`.

        This (not ``repr``/``asdict``) is the canonical serialization:
        it feeds :func:`spec_key` and the persistent result cache, and it
        is how specs cross process boundaries in parallel campaigns.
        Generic field enumeration, so future fields automatically enter
        the cache key.
        """
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        return dataclass_from_dict(
            cls,
            data,
            converters={
                "scoop": ScoopConfig.from_dict,
                "query_plan": QueryPlanConfig.from_dict,
            },
        )


def is_analytical(spec: ExperimentSpec) -> bool:
    """Whether ``spec`` is evaluated with the analytical model.

    The paper evaluates HASH analytically ("we evaluate the cost of this
    HASH approach analytically"); a spec with ``hash_simulated`` set
    (the E15 grid does) runs the simulated HASH extension instead.
    """
    return spec.policy == "hash" and not spec.hash_simulated


def spec_key(spec: ExperimentSpec) -> str:
    """Canonical SHA-256 key of one trial (spec + evaluation mode + code).

    Stable across processes and sessions — the key of the persistent
    result cache. The evaluation mode (:func:`is_analytical`) keeps the
    analytical HASH evaluation apart from a simulated run. The key also
    mixes in :func:`repro.experiments.salt.cache_salt` (a content hash of
    the ``repro`` source tree, ``REPRO_CACHE_SALT`` overrides), so editing
    simulator code self-invalidates every cached entry — ``clear-cache``
    is housekeeping, not correctness.
    """
    return canonical_key(
        {
            "schema": SPEC_SCHEMA_VERSION,
            "salt": cache_salt(),
            "analytical": is_analytical(spec),
            "spec": spec.to_dict(),
        }
    )


@dataclass
class ExperimentResult:
    """Measured outcome of one trial, in the paper's terms."""

    spec: ExperimentSpec
    #: Figure 3 categories: data / summary / mapping / "query/reply".
    breakdown: Dict[str, float]
    #: total messages sent (the paper's cost metric).
    total_messages: float
    #: E6 statistics.
    storage_success_rate: float = 0.0
    owner_hit_rate: float = 0.0
    query_reply_rate: float = 0.0
    #: E14 statistic: fraction of produced readings still retrievable at
    #: the end of the trial (readings orphaned on dead nodes' flash are
    #: not). Equals storage_success_rate when nothing fails.
    retrieval_completeness: float = 0.0
    #: E7 statistics (root = node 0).
    root_sent: int = 0
    root_received: int = 0
    mean_node_energy_j: float = 0.0
    root_energy_j: float = 0.0
    #: workload volume for sanity checks.
    readings_produced: int = 0
    queries_issued: int = 0
    #: SCOOP diagnostics.
    remaps_run: int = 0
    remaps_suppressed: int = 0
    indices_disseminated: int = 0
    mean_nodes_targeted: float = 0.0
    analytical: bool = False
    #: Structured per-trial telemetry (message/energy/load breakdowns).
    #: ``None`` for analytical evaluations, which have no simulator to
    #: meter.
    metrics: Optional[TrialMetrics] = None

    @property
    def policy(self) -> str:
        return self.spec.policy

    @property
    def workload(self) -> str:
        return self.spec.workload

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return dataclass_to_dict(self)

    def deterministic_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` minus the wall-clock timing — every field that
        is a pure function of the spec. This is what serial-vs-parallel
        and cache-replay identity checks compare."""
        out = self.to_dict()
        if out.get("metrics"):
            metrics = dict(out["metrics"], wall_clock_s=0.0)
            # timing.events_processed is deterministic (kernel event count);
            # events_per_sec is wall-clock derived and must be dropped.
            timing = dict(metrics.get("timing") or {})
            timing.pop("events_per_sec", None)
            metrics["timing"] = timing
            out["metrics"] = metrics
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        return dataclass_from_dict(
            cls,
            data,
            converters={
                "spec": ExperimentSpec.from_dict,
                "breakdown": dict,
                "metrics": TrialMetrics.from_dict,
            },
        )


def scale_spec(spec: ExperimentSpec, factor: float) -> ExperimentSpec:
    """Shrink the experiment timeline by ``factor`` for quick runs.

    Durations shrink; rates (sample/query/summary/remap intervals) are kept
    so per-second dynamics are untouched — only fewer of everything
    happens. Message *ratios* between policies are preserved, which is what
    the figures compare.
    """
    if factor >= 0.999:
        return spec
    scoop = dataclasses.replace(
        spec.scoop,
        duration=max(300.0, spec.scoop.duration * factor),
        stabilization=max(240.0, spec.scoop.stabilization * factor),
    )
    return dataclasses.replace(spec, scoop=scoop)


def build_workload(spec: ExperimentSpec, topology: Topology) -> Workload:
    """The trial's data source: the named family over every registered
    attribute (E15). At one attribute, attribute 0 is the named family's
    own stream, sample for sample."""
    config = spec.scoop
    return MultiAttributeWorkload(
        spec.workload,
        config.attribute_specs,
        config.n_nodes,
        seed=spec.seed,
        positions=topology.positions,
    )


def build_topology(spec: ExperimentSpec) -> Topology:
    n = spec.scoop.n_nodes
    if spec.topology_kind == "testbed":
        topo = indoor_testbed(n, seed=spec.seed + 7)
    elif spec.topology_kind == "geometric":
        topo = random_geometric(n, seed=spec.seed + 7)
    elif spec.topology_kind == "line":
        topo = line(n)
    elif spec.topology_kind == "grid":
        topo = near_square_grid(n)
    else:
        raise ValueError(f"unknown topology kind {spec.topology_kind!r}")
    return degrade(topo, spec.link_loss)


#: Kill times land in this fraction of the measured phase (after
#: stabilization): late enough that the network is doing real work, early
#: enough that staleness eviction and the next remap happen in-run.
CHURN_KILL_WINDOW = (0.10, 0.50)


def build_failure_schedule(spec: ExperimentSpec) -> Optional[FailureSchedule]:
    """The trial's churn schedule, or None when the spec injects none.

    Derived from the spec alone (the schedule RNG is seeded by
    ``spec.seed`` and never touches the simulation RNG), so it is
    identical in serial and pooled execution and cache keys stay honest.
    The window scales with the configured durations, so time-scaled runs
    keep the paper-relative churn dynamics.
    """
    if spec.churn_rate <= 0.0:
        return None
    config = spec.scoop
    lo, hi = CHURN_KILL_WINDOW
    return FailureSchedule.from_rate(
        rate=spec.churn_rate,
        nodes=list(config.sensor_ids),
        window=(
            config.stabilization + lo * config.duration,
            config.stabilization + hi * config.duration,
        ),
        seed=spec.seed,
        revive_frac=spec.churn_revive_frac,
        downtime=spec.churn_downtime_frac * config.duration,
    )


def build_motes(
    spec: ExperimentSpec, net: Network, workload: Workload
) -> Tuple[Basestation, List[ScoopNode]]:
    """Instantiate and wire the motes of ``spec.policy`` into ``net``.

    Dispatches through the policy registry, so plug-in policies
    (``register_policy``) run through the exact same pipeline as the
    paper's four.
    """
    base, nodes = policy_factory(spec.policy)(spec, net, workload)
    net.add_mote(base)
    for node in nodes:
        net.add_mote(node)
    return base, nodes


def run_experiment(
    spec: ExperimentSpec, topology: Optional[Topology] = None
) -> ExperimentResult:
    """Run one full trial and collect the paper's measurements.

    A thin batch driver over :class:`repro.service.deployment.Deployment`
    (imported lazily — the service package imports this module's
    builders): the facade runs the paper's phases in exactly the order
    this function used to inline, so trial trajectories are
    byte-identical to the pre-facade runner. Specs with
    ``service_qps > 0`` replace the internal query stream with the E16
    offered-load driver.
    """
    from repro.service.deployment import Deployment

    # Wall-clock capture of trial *execution* time — reported via
    # TrialMetrics.timing, never fed back into the simulation.
    # repro: allow[DET02] deliberate wall-clock capture of trial runtime
    started = time.perf_counter()
    config = spec.scoop
    deployment = Deployment.create(spec, topology=topology)

    # Phase 1: boot and stabilize the routing tree (paper: 10 minutes of
    # heartbeats before sampling starts).
    deployment.boot()

    # Phase 2: the measured workload.
    deployment.stabilize()
    if spec.service_qps > 0:
        from repro.service.loadtest import drive_load

        drive_load(deployment)
        deployment.run_until(config.stabilization + config.duration)
    else:
        deployment.start_query_stream()
        deployment.run_until(config.stabilization + config.duration)

    # Phase 3: drain — flush batches, let in-flight frames land.
    deployment.drain()

    # repro: allow[DET02] end of the same wall-clock capture; purely telemetry
    return deployment.collect(wall_clock_s=time.perf_counter() - started)


def _collect(
    spec: ExperimentSpec,
    net: Network,
    base: Basestation,
    queries_issued: int,
    wall_clock_s: float = 0.0,
    service: Optional[Dict[str, float]] = None,
) -> ExperimentResult:
    census = net.census
    tracker = net.tracker
    root = spec.scoop.basestation_id
    targeted = [len(q.nodes_targeted) for q in base.query_log]
    # Ground-truth oracle scorecard: exact per-query answer sets replayed
    # from the tracker, plus per-attribute planner/delivery counters.
    oracle, attributes = score_trial(base.query_log, tracker, spec.scoop)
    events = net.sim.events_executed
    timing = {
        "events_processed": float(events),
        "events_per_sec": (
            round(events / wall_clock_s, 1) if wall_clock_s > 0 else 0.0
        ),
    }
    metrics = TrialMetrics.collect(
        census,
        net.energy,
        root=root,
        planner=getattr(base, "planner_stats", None),
        sim_time_s=net.sim.now,
        wall_clock_s=wall_clock_s,
        tracker=tracker,
        attributes=attributes,
        oracle=oracle,
        service=service,
        timing=timing,
    )
    return ExperimentResult(
        spec=spec,
        breakdown=census.breakdown(),
        total_messages=census.total_sent(),
        storage_success_rate=tracker.storage_success_rate(),
        owner_hit_rate=tracker.owner_hit_rate(),
        query_reply_rate=tracker.query_reply_rate(),
        retrieval_completeness=tracker.retrieval_completeness(net.sim.now),
        root_sent=census.node_sent(root),
        root_received=census.node_received(root),
        mean_node_energy_j=net.energy.mean_node_j(exclude=(root,)),
        root_energy_j=net.energy.node_energy(root).total_j,
        readings_produced=len(tracker.readings),
        queries_issued=queries_issued,
        remaps_run=getattr(base, "remaps_run", 0),
        remaps_suppressed=getattr(base, "remaps_suppressed", 0),
        indices_disseminated=len(base.index_histories[0]),
        mean_nodes_targeted=(sum(targeted) / len(targeted)) if targeted else 0.0,
        metrics=metrics,
    )


def run_hash_analytical(
    spec: ExperimentSpec, topology: Optional[Topology] = None
) -> ExperimentResult:
    """The paper's analytical HASH evaluation over the same workload."""
    config = spec.scoop
    topo = topology if topology is not None else build_topology(spec)
    workload = build_workload(spec, topo)
    model = AnalyticalHashModel(topo, config, salt=spec.seed)
    estimate = model.estimate(
        workload, spec.query_plan, config.duration, seed=spec.seed
    )
    spec_out = dataclasses.replace(spec, policy="hash")
    n_queries = int(config.duration / config.query_interval)
    n_samples = (
        (config.n_nodes - 1)
        * config.n_attributes
        * int(config.duration / config.sample_interval)
    )
    return ExperimentResult(
        spec=spec_out,
        breakdown=estimate.breakdown(),
        total_messages=estimate.total,
        readings_produced=n_samples,
        queries_issued=n_queries,
        analytical=True,
    )
