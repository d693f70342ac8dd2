"""E1 — Figure 3 (left): testbed cost breakdown by message type.

Paper series: scoop/unique, scoop/gaussian, local/gaussian, base/gaussian.
Expected shape: scoop/unique is cheapest (each node owns its own value);
scoop/gaussian beats both LOCAL and BASE despite its summary and mapping
overheads.
"""

from _harness import assert_claims, emit, run_scenario

from repro.experiments.reporting import breakdown_table


def test_fig3_left(benchmark):
    out = run_scenario(benchmark, "fig3_left")
    emit(
        "fig3_left",
        breakdown_table(
            out.results, "Figure 3 (left): cost breakdown per storage method"
        ),
    )
    assert_claims(out)
