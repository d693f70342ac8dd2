"""E8 — Section 6 text: scaling with network size.

Paper: "the system scaled well up to 100 nodes with little overall effect
on loss rate. We observed that Scoop over a RANDOM distribution is more
sensitive to larger networks as data is sent further across the network;
Scoop over other distributions is less sensitive to network size."
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_scaling(benchmark):
    out = run_scenario(benchmark, "scaling")
    rows = []
    for n, cell in sweep(by_label(out)).items():
        real, rand = cell["scoop/real"], cell["scoop/random"]
        rows.append(
            [
                n,
                int(real.total_messages),
                f"{real.storage_success_rate:.0%}",
                int(rand.total_messages),
                f"{rand.storage_success_rate:.0%}",
            ]
        )
    emit(
        "scaling",
        format_table(
            ["nodes", "REAL msgs", "REAL stored", "RANDOM msgs", "RANDOM stored"],
            rows,
            "Section 6: Scoop total cost and storage success vs network size",
        ),
    )
    assert_claims(out)
