"""E15 — past the paper: k concurrent attribute indexes per deployment.

The paper's Section 5.5 query model is one attribute per index; the
motivating deployments sample several. This grid runs SCOOP vs LOCAL vs
(simulated) HASH at k ∈ {1, 2, 4} attributes with a constant
*per-attribute* query rate, and the scenario's registered check holds
the multi-attribute cost story:

* SCOOP stays cheaper than LOCAL in every cell;
* SCOOP's total cost grows **sublinearly** in k — summaries pack k
  histogram blocks into one packet and every remap disseminates all k
  indexes under one shared Trickle epoch, so maintenance is amortized;
* LOCAL's flood cost keeps growing with the k× query stream (it cannot
  amortize anything);
* the ground-truth oracle confirms correctness: zero precision
  violations and a healthy recall for SCOOP in every cell, with
  per-attribute counters present for every registered attribute.
"""

from _harness import assert_claims, by_label, emit, run_scenario

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import sweep


def test_multi_attribute(benchmark):
    out = run_scenario(benchmark, "multi_attribute")
    rows = []
    for k, cell in sweep(by_label(out)).items():
        scoop, local = cell["scoop"], cell["local"]
        maintenance = scoop.breakdown["summary"] + scoop.breakdown["mapping"]
        rows.append(
            [
                k,
                int(scoop.total_messages),
                int(maintenance),
                f"{scoop.metrics.oracle['recall_weighted']:.0%}",
                int(local.total_messages),
                int(cell["hash"].total_messages),
            ]
        )
    emit(
        "multi_attribute",
        format_table(
            [
                "k",
                "SCOOP msgs",
                "SCOOP maint",
                "SCOOP recall",
                "LOCAL msgs",
                "HASH msgs",
            ],
            rows,
            "E15: message cost and oracle recall vs concurrent attribute count",
        ),
    )
    assert_claims(out)
