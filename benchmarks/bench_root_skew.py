"""E7 — Section 6 text: load on the root node and battery-lifetime ratios.

Paper: the BASE root "receives about 24,000 data messages"; the LOCAL root
is lightest; SCOOP sits between — and overall, "if a node running LOCAL can
last for one month ... an average SCOOP node would last for about three
months, although the battery on the root in SCOOP would have to be replaced
every two weeks."
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table


def test_root_skew(benchmark):
    out = run_scenario(benchmark, "root_skew")
    results = by_label(out)
    rows = []
    for policy in ("scoop", "base", "local"):
        r = results[f"{policy}/real"]
        rows.append(
            [
                policy,
                r.root_sent,
                r.root_received,
                f"{r.root_energy_j:.2f}",
                f"{r.metrics.root_energy_j['radio_rx']:.2f}",
                f"{r.mean_node_energy_j:.2f}",
                f"{r.metrics.load_skew:.2f}",
            ]
        )
    headers = [
        "policy",
        "root sent",
        "root received",
        "root J",
        "root rx J",
        "mean node J",
        "skew",
    ]
    emit(
        "root_skew",
        format_table(
            headers,
            rows,
            "Section 6: root-node load and energy by policy (REAL)",
        ),
    )
    # The paper additionally reports SCOOP's root as busier than its
    # average node; with the basestation at the floor's corner, relay
    # nodes in the middle of the tree carry more retransmissions than the
    # root itself — recorded as a deviation in EXPERIMENTS.md (E7).
    assert_claims(out)
