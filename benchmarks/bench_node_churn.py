"""E14 — past the paper: data survival and recovery under node churn.

The paper's Section 6 notes that nodes die and that Scoop's answer is
adaptivity: the basestation stops assigning ranges to silent nodes and
the next storage index re-maps a dead owner's range. This grid kills
0..45% of the sensors mid-run (`sim/failure.py`) and compares SCOOP with
LOCAL: retrieval completeness must degrade monotonically as churn rises,
and SCOOP must *re-map* (planner reassignment counters move, the storage
pipeline keeps landing readings) rather than collapse.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_node_churn(benchmark):
    out = run_scenario(benchmark, "node_churn")
    rows = []
    for rate, cell in sweep(by_label(out)).items():
        scoop, local = cell["scoop"], cell["local"]
        rows.append(
            [
                f"{float(rate):.0%}",
                f"{scoop.retrieval_completeness:.0%}",
                f"{scoop.storage_success_rate:.0%}",
                int(scoop.metrics.planner.get("owners_reassigned", 0)),
                f"{local.retrieval_completeness:.0%}",
                int(scoop.total_messages),
                int(local.total_messages),
            ]
        )
    emit(
        "node_churn",
        format_table(
            [
                "churn",
                "SCOOP compl",
                "SCOOP stored",
                "reassigned",
                "LOCAL compl",
                "SCOOP msgs",
                "LOCAL msgs",
            ],
            rows,
            "E14: data survival and owner reassignment under node churn",
        ),
    )
    assert_claims(out)
