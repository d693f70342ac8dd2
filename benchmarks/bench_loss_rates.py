"""E6 — Section 6 text: end-to-end loss rates.

Paper: "Data messages are successfully stored about 93% of the time, and
about 78% of query results are successfully retrieved on average"; "about
85% of the time, the appropriate destination node is found ... the
remaining 15% of the time, the value ends up being stored at the root".
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import rates_table


def test_loss_rates(benchmark):
    out = run_scenario(benchmark, "loss_rates")
    result = by_label(out)["scoop/real"]
    emit("loss_rates", rates_table(result, "Section 6: Scoop loss rates (REAL)"))
    assert_claims(out)
