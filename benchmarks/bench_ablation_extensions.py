"""A1 — ablation: the Section 4 extensions (owner sets, range placement).

Not a paper figure; DESIGN.md calls these out as design choices worth
quantifying. Owner sets can cut data cost when several regions produce the
same values (each ships to a nearby owner); range placement trades index
granularity for fewer mapping chunks.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table


def test_ablation_extensions(benchmark):
    out = run_scenario(benchmark, "ablation_extensions")
    rows = []
    for name, result in by_label(out).items():
        rows.append(
            [f"gaussian[{name}]"]
            + [
                int(result.breakdown[c])
                for c in ("data", "summary", "mapping", "query/reply")
            ]
            + [int(result.total_messages)]
        )
    emit(
        "ablation_extensions",
        format_table(
            ["variant", "data", "summary", "mapping", "query/reply", "total"],
            rows,
            "Ablation: Section 4 index extensions (GAUSSIAN)",
        ),
    )
    assert_claims(out)
