"""E11 — past the paper: SCOOP vs LOCAL across topology profiles.

The paper evaluates one indoor testbed and one simulated ~20%-degree
profile. This grid re-runs the comparison over four topology families
(line, near-square grid, random geometric, indoor testbed) at the
testbed's 63-node size: Scoop's placement advantage should survive a
change of geometry, not just the deployment it was tuned on.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_topology_profiles(benchmark):
    out = run_scenario(benchmark, "topology_profiles")
    rows = []
    for kind, cell in sweep(by_label(out)).items():
        scoop, local = cell["scoop"], cell["local"]
        rows.append(
            [
                kind,
                int(scoop.total_messages),
                f"{scoop.storage_success_rate:.0%}",
                int(local.total_messages),
                f"{local.total_messages / scoop.total_messages:.1f}x",
            ]
        )
    emit(
        "topology_profiles",
        format_table(
            ["topology", "SCOOP msgs", "SCOOP stored", "LOCAL msgs", "LOCAL/SCOOP"],
            rows,
            "E11: SCOOP vs LOCAL total cost across topology profiles",
        ),
    )
    assert_claims(out)
