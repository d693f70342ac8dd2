"""E4 — Figure 4: total cost as a function of the percentage of nodes queried.

Node-list queries name a growing fraction of the sensors (the paper's
"% Nodes Queried" axis). Expected shape: LOCAL is flat (it always floods
everyone and everyone replies); BASE is flat (queries are free); SCOOP
starts well below both and rises with the fraction, crossing BASE at high
percentages ("around 60%, [Scoop] becomes slightly more expensive than
BASE").
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import series_table
from repro.experiments.scenarios import sweep


def test_fig4_selectivity(benchmark):
    out = run_scenario(benchmark, "fig4_selectivity")
    grid = sweep(by_label(out))
    series = {
        policy: [cell[policy].total_messages for cell in grid.values()]
        for policy in ("scoop", "local", "base")
    }
    emit(
        "fig4_selectivity",
        series_table(
            "% nodes queried",
            series,
            [f"{float(frac):.0%}" for frac in grid],
            "Figure 4: cost vs percentage of nodes queried (REAL)",
        ),
    )
    assert_claims(out)
