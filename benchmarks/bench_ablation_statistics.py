"""A2 — ablation: statistics staleness (remap-interval sweep).

Not a paper figure; quantifies the freshness/overhead trade-off the paper
sets by hand ("the basestation recreates a new storage index every 4
minutes"). Faster remaps track drifting data better (fewer owner misses)
but cost more mapping messages.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table


def test_ablation_statistics(benchmark):
    out = run_scenario(benchmark, "ablation_statistics")
    rows = []
    for label, r in by_label(out).items():
        rows.append(
            [
                label.partition("=")[2],
                int(r.breakdown["mapping"]),
                int(r.breakdown["data"]),
                f"{r.owner_hit_rate:.0%}",
                int(r.total_messages),
            ]
        )
    emit(
        "ablation_statistics",
        format_table(
            ["remap interval", "mapping msgs", "data msgs", "owner hit", "total"],
            rows,
            "Ablation: remap interval vs mapping overhead and placement quality",
        ),
    )
    assert_claims(out)
