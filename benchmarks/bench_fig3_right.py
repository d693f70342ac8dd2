"""E3 — Figure 3 (right): SCOOP over the five data sources.

Expected shape (paper): UNIQUE performs best (perfect locality); EQUAL is
cheap (suppressed mappings, full batching); RANDOM is the worst case, where
Scoop "performs no better than BASE or HASH" because there is no
predictability to exploit; REAL and GAUSSIAN sit in between.
"""

from _harness import assert_claims, emit, run_scenario

from repro.experiments.reporting import breakdown_table


def test_fig3_right(benchmark):
    out = run_scenario(benchmark, "fig3_right")
    emit(
        "fig3_right",
        breakdown_table(
            out.results, "Figure 3 (right): Scoop over different data sources"
        ),
    )
    assert_claims(out)
