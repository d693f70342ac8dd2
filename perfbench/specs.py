"""The benchmark's workloads, built from the runner's ``--seed``.

The program only receives what these functions build: an
``ExperimentSpec`` for a trial, or a request schedule for the server.
Every timing constant is pinned here, so ``REPRO_BENCH_SCALE`` and
``REPRO_FULL`` never change what the benchmark measures.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The seed a plain run uses.
DEFAULT_SEED = 1
#: Kept out of tuning: a claimed gain is re-checked on this seed.
HELD_OUT_SEED = 7

TRIAL_WORKLOADS = ("trial-dense", "trial-sparse")
SERVE_WORKLOAD = "serve-open"
WORKLOADS = TRIAL_WORKLOADS + (SERVE_WORKLOAD,)

#: trial-dense: E13's 256-node indoor-testbed point (mean audible degree
#: about 67 against the 32-entry neighbour table). The timeline is
#: shortened so a run fits several trials: warm-up and measured phase
#: still carry the full beacon load that makes link estimation and
#: routing re-evaluation thrash, and the remap interval shrinks with it
#: so the basestation planner still runs once.
DENSE_NODES = 256
DENSE_STABILIZATION_S = 60.0
DENSE_DURATION_S = 60.0
DENSE_REMAP_INTERVAL_S = 50.0

#: trial-sparse: a 1024-node lattice (degree 4) with 30% extra link
#: loss. Its n^2 radio tables make it the setup and memory workload. The
#: warm-up is long enough for the routing tree to reach every node: with
#: a shorter one the share of joined nodes, and with it the trial's cost,
#: swings several-fold between seeds.
SPARSE_NODES = 1024
SPARSE_LINK_LOSS = 0.3
SPARSE_STABILIZATION_S = 600.0
SPARSE_DURATION_S = 20.0
#: Four queries in the measured phase (at 604-616 s), so every trial
#: plans and answers queries for the oracle to check.
SPARSE_QUERY_INTERVAL_S = 4.0
#: Remaps at 615 s and, during the drain, at 630 s.
SPARSE_REMAP_INTERVAL_S = 15.0

#: serve-open: tenants x workers of the sharded server, and the
#: open-loop arrival rate (requests per second, all tenants together).
SERVE_TENANTS = 2
SERVE_WORKERS = 2
SERVE_RATE = 50.0
SERVE_DOMAIN = (0, 100)
#: The served deployment's own seed: pinned, so every run serves the
#: same networks and ``--seed`` only changes the offered requests.
SERVE_SPEC_SEED = 11


def dense_spec(seed: int):
    from repro.experiments.scenarios import scaling_xl

    (_n, (scoop, _local)), = scaling_xl(seed=seed, sizes=(DENSE_NODES,))
    return dataclasses.replace(
        scoop,
        scoop=dataclasses.replace(
            scoop.scoop,
            stabilization=DENSE_STABILIZATION_S,
            duration=DENSE_DURATION_S,
            remap_interval=DENSE_REMAP_INTERVAL_S,
        ),
    )


def sparse_spec(seed: int):
    from repro.core.config import ScoopConfig, ValueDomain
    from repro.experiments.runner import ExperimentSpec

    return ExperimentSpec(
        policy="scoop",
        workload="gaussian",
        topology_kind="grid",
        link_loss=SPARSE_LINK_LOSS,
        scoop=ScoopConfig(
            n_nodes=SPARSE_NODES,
            domain=ValueDomain(0, 100),
            sample_interval=10.0,
            query_interval=SPARSE_QUERY_INTERVAL_S,
            summary_interval=40.0,
            remap_interval=SPARSE_REMAP_INTERVAL_S,
            stabilization=SPARSE_STABILIZATION_S,
            duration=SPARSE_DURATION_S,
            beacon_interval=10.0,
            query_reply_window=8.0,
            max_network_size=SPARSE_NODES,
        ),
        seed=seed,
    )


def trial_spec(workload: str, seed: int):
    if workload == "trial-dense":
        return dense_spec(seed)
    if workload == "trial-sparse":
        return sparse_spec(seed)
    raise ValueError(f"not a trial workload: {workload!r}")


def serve_spec():
    """The served deployment: a 25-mote grid, so each cache miss does
    real simulator work while boot stays about a second per tenant."""
    from repro.core.config import ScoopConfig, ValueDomain
    from repro.experiments.runner import ExperimentSpec

    lo, hi = SERVE_DOMAIN
    return ExperimentSpec(
        policy="scoop",
        workload="gaussian",
        scoop=ScoopConfig(
            domain=ValueDomain(lo, hi),
            n_nodes=25,
            sample_interval=10.0,
            summary_interval=60.0,
            remap_interval=300.0,
            query_interval=12.0,
            query_reply_window=8.0,
            duration=600.0,
            stabilization=60.0,
        ),
        seed=SERVE_SPEC_SEED,
        topology_kind="grid",
    )


@dataclass(frozen=True)
class Offer:
    """One open-loop request: due ``offset_s`` after the load starts."""

    offset_s: float
    tenant: str
    attr: int
    lo: int
    hi: int


def tenant_names() -> List[str]:
    """The names ``ShardedGateway`` gives its tenants."""
    return [f"tenant{i}" for i in range(SERVE_TENANTS)]


def open_loop_schedule(seed: int, requests: int) -> List[Offer]:
    """The whole offered load, built up front: Poisson arrivals at
    ``SERVE_RATE`` over all tenants, each arrival picking a tenant
    uniformly and taking that tenant's next range from
    ``build_client_program``'s hot/cold mix."""
    from repro.service import build_client_program

    names = tenant_names()
    programs: Dict[str, List[Tuple[int, int, int]]] = {
        name: build_client_program(requests, SERVE_DOMAIN, seed=seed * 100 + i)
        for i, name in enumerate(names)
    }
    taken = {name: 0 for name in names}
    rng = random.Random(seed)
    offers: List[Offer] = []
    t = 0.0
    for _ in range(requests):
        t += rng.expovariate(SERVE_RATE)
        name = names[rng.randrange(len(names))]
        attr, lo, hi = programs[name][taken[name]]
        taken[name] += 1
        offers.append(Offer(t, name, attr, lo, hi))
    return offers
