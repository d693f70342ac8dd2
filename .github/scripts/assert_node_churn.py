"""Weekly-cron gate: shape assertions on the full-scale E14 export.

Reads the latest ``node_churn`` campaign export (written by
``REPRO_BENCH_SCALE=1 ... run node_churn --export``) and checks the churn
story's qualitative shape: the retrieval-completeness aggregate degrades
monotonically with the failure rate for both policies, SCOOP's planner
counters show dead owners' ranges being reassigned at a remap, and the
storage pipeline keeps landing readings rather than collapsing.
"""

import sys

from repro.experiments.export import latest_export, load_campaign_export

#: Cross-seed slack on adjacent-rate completeness comparisons (different
#: rates kill different node sets at different times).
MONOTONE_SLACK = 0.03


def main() -> int:
    path = latest_export("node_churn")
    assert path is not None, "no node_churn export found"
    doc = load_campaign_export(path)

    completeness = {}
    reassigned = 0
    stored = {}
    for trial in doc["trials"]:
        rate_part, policy = trial["label"].split("/")
        rate = float(rate_part.removeprefix("churn="))
        result = trial["result"]
        survival = result["metrics"]["survival"]
        assert survival, trial["label"]
        completeness.setdefault(policy, {}).setdefault(rate, []).append(
            survival["completeness"]
        )
        expect_failures = rate > 0
        assert (survival["nodes_failed"] > 0) == expect_failures, trial["label"]
        if policy == "scoop":
            stored.setdefault(rate, []).append(result["storage_success_rate"])
            if rate > 0:
                reassigned += result["metrics"]["planner"].get(
                    "owners_reassigned", 0
                )

    assert set(completeness) == {"scoop", "local"}, sorted(completeness)
    means = {
        policy: {
            rate: sum(values) / len(values) for rate, values in by_rate.items()
        }
        for policy, by_rate in completeness.items()
    }
    rates = sorted(means["scoop"])
    assert rates[0] == 0.0 and len(rates) >= 3, rates
    for policy, by_rate in means.items():
        series = [by_rate[rate] for rate in rates]
        for a, b in zip(series, series[1:]):
            assert b <= a + MONOTONE_SLACK, (policy, series)
        assert series[-1] < series[0] - 0.05, (policy, series)
    assert reassigned > 0, "no SCOOP owner reassignment under churn"
    worst_stored = sum(stored[rates[-1]]) / len(stored[rates[-1]])
    assert worst_stored > 0.8, stored

    print(
        "node_churn shape OK:",
        {
            p: {rate: round(v, 2) for rate, v in by_rate.items()}
            for p, by_rate in means.items()
        },
        f"reassigned={reassigned} stored@max={worst_stored:.0%}",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
