"""E5 — Figure 5: total cost as a function of the interval between queries.

Expected shape (paper): "Since the query cost is very small in SCOOP and
zero in BASE, only LOCAL is substantially affected by this; as the query
rate drops, it becomes a more attractive option relative to the others."
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import series_table
from repro.experiments.scenarios import sweep


def test_fig5_query_interval(benchmark):
    out = run_scenario(benchmark, "fig5_query_interval")
    grid = sweep(by_label(out))
    series = {
        policy: [cell[f"{policy}/real"].total_messages for cell in grid.values()]
        for policy in ("scoop", "local", "base")
    }
    emit(
        "fig5_query_interval",
        series_table(
            "query interval (s)",
            series,
            list(grid),
            "Figure 5: cost vs query interval (REAL)",
        ),
    )
    assert_claims(out)
