"""E9 — Section 6 text: the sample-interval sweep.

Paper: "As less data is stored, differences between the behavior of Scoop
on different types of data are less pronounced as the cost of queries,
mappings, and summaries becomes dominant."
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_sample_interval(benchmark):
    out = run_scenario(benchmark, "sample_interval")
    sources = ("unique", "gaussian", "random")
    rows = [
        [f"{interval}s"] + [int(cell[f"scoop/{s}"].total_messages) for s in sources]
        for interval, cell in sweep(by_label(out)).items()
    ]
    emit(
        "sample_interval",
        format_table(
            ["sample interval", *sources],
            rows,
            "Section 6: Scoop cost vs sample interval, per data source",
        ),
    )
    assert_claims(out)
