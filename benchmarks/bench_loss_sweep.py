"""E12 — past the paper: cost under degrading link quality.

The paper reports loss behaviour only at the testbed's native loss rates
(E6). This sweep degrades every audible testbed link by 0..50% extra
independent loss (:func:`repro.sim.topology.degrade`) and compares SCOOP
with LOCAL: retransmissions should inflate Scoop's cost as links worsen,
while its storage pipeline keeps working.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_loss_sweep(benchmark):
    out = run_scenario(benchmark, "loss_sweep")
    rows = []
    for extra, cell in sweep(by_label(out)).items():
        scoop, local = cell["scoop"], cell["local"]
        rows.append(
            [
                f"{float(extra):.0%}",
                int(scoop.total_messages),
                f"{scoop.storage_success_rate:.0%}",
                f"{scoop.query_reply_rate:.0%}",
                int(local.total_messages),
            ]
        )
    emit(
        "loss_sweep",
        format_table(
            ["extra loss", "SCOOP msgs", "SCOOP stored", "SCOOP replies", "LOCAL msgs"],
            rows,
            "E12: SCOOP vs LOCAL as every testbed link degrades",
        ),
    )
    assert_claims(out)
