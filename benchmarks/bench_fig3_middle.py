"""E2 — Figure 3 (middle): SCOOP vs LOCAL vs HASH vs BASE on the REAL trace.

HASH is evaluated analytically, exactly as in the paper ("Because we did
not have a working implementation of HASH ... we evaluate the cost of this
HASH approach analytically"). Expected shape: SCOOP well below every
baseline; HASH comparable to BASE.
"""

from _harness import assert_claims, emit, run_scenario

from repro.experiments.reporting import breakdown_table


def test_fig3_middle(benchmark):
    out = run_scenario(benchmark, "fig3_middle")
    emit(
        "fig3_middle",
        breakdown_table(
            out.results,
            "Figure 3 (middle): storage policies over the REAL trace "
            "(HASH analytical)",
        ),
    )
    assert_claims(out)
