"""Watching Scoop adapt: the index migrates as query pressure shifts.

Demonstrates the paper's central claim (Section 4, properties P1/P2):
"data is stored closer to the basestation when the query rate is higher
than data rates, and data is stored closer to the source when data rates
are higher than query rates."

The script keeps one resident :class:`repro.service.Deployment` (the
same facade the experiment runner and the query gateway are built on) on
a line topology — so "distance to the basestation" is just the node id —
and prints where the hot value band is stored after each phase:

  phase 1 — no queries: values live at their producers (deep in the line);
  phase 2 — a query storm on one band: that band's owner migrates toward
            the basestation;
  phase 3 — queries stop: the band drifts back toward its producer.

Usage:
    python examples/adaptive_workload.py
"""

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments import ExperimentSpec
from repro.service import Deployment
from repro.sim.topology import line

N = 10  # line: base 0 - 1 - 2 - ... - 9
HOT_VALUE = 8  # produced by node 8, two hops from the line's end


def owner_distance(base, value: int) -> str:
    if base.index_for(0) is None:
        return "no index yet"
    owner = base.index_for(0).owner_of(value)
    return f"node {owner} (hops from base ~{owner})"


def main() -> None:
    config = ScoopConfig(
        n_nodes=N,
        domain=ValueDomain(0, 20),
        sample_interval=6.0,
        summary_interval=25.0,
        remap_interval=60.0,
        stabilization=80.0,
        duration=1800.0,
        beacon_interval=5.0,
    )
    # One spec, one wiring path: Deployment.create builds the topology,
    # network, workload and motes (swap the policy name to watch a
    # baseline instead).
    spec = ExperimentSpec(policy="scoop", workload="unique", scoop=config, seed=3)
    dep = Deployment.create(spec, topology=line(N))
    base = dep.base

    dep.boot()
    dep.stabilize()

    # Phase 1: data only. Each node produces its own id; no query pressure.
    dep.advance(300.0)
    print(f"phase 1 (no queries):    value {HOT_VALUE} stored at "
          f"{owner_distance(base, HOT_VALUE)}")

    # Phase 2: hammer value 8 with queries every 2 seconds. Queries are
    # injected mid-flight through the facade (dep.query validates the
    # range against the domain and goes through base.issue_query);
    # wait=False keeps the storm's own cadence instead of blocking each
    # query through its reply window.
    stop_at = dep.now + 400.0

    def storm() -> None:
        if dep.now >= stop_at:
            return
        dep.query(
            attr=0,
            lo=HOT_VALUE,
            hi=HOT_VALUE,
            time_range=(dep.now - 60.0, dep.now),
            wait=False,
        )
        dep.net.sim.schedule(2.0, storm)

    dep.net.sim.schedule(1.0, storm)
    dep.run_until(stop_at + 60.0)
    print(f"phase 2 (query storm):   value {HOT_VALUE} stored at "
          f"{owner_distance(base, HOT_VALUE)}")
    owner_under_storm = base.index_for(0).owner_of(HOT_VALUE)

    # Phase 3: silence again. Query statistics average over the whole
    # history (the paper's estimator has long memory), so the band drifts
    # back only slowly — it may still sit at the base after 15 minutes.
    dep.advance(900.0)
    print(f"phase 3 (queries over):  value {HOT_VALUE} stored at "
          f"{owner_distance(base, HOT_VALUE)} "
          "(drifts home slowly: the query-rate estimate decays with 1/t)")

    print()
    print(f"index versions disseminated: {len(base.index_histories[0])}")
    print(f"remaps suppressed as unchanged: {base.remaps_suppressed}")
    assert owner_under_storm < 8, (
        "expected the queried band to migrate toward the basestation"
    )
    print("OK: the queried band moved toward the basestation under load.")


if __name__ == "__main__":
    main()
