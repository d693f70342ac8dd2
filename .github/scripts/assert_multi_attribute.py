"""Weekly-cron gate: shape assertions on the full-scale E15 export.

Reads the latest ``multi_attribute`` campaign export (written by
``REPRO_BENCH_SCALE=1 ... run multi_attribute --export``) and checks the
multi-attribute cost story's qualitative shape:

* SCOOP undercuts LOCAL in every (k, policy) cell;
* SCOOP's per-attribute message cost grows **sublinearly** in k
  (total and, more strongly, the shared summary+mapping maintenance),
  because k histogram blocks ride one summary packet and k indexes ride
  one Trickle epoch;
* LOCAL's broadcast floods keep growing ~linearly with the k× query
  stream — nothing to amortize;
* every simulated cell carries per-attribute counters for all of its k
  attributes, and the ground-truth oracle reports zero precision
  violations everywhere plus paper-consistent recall for SCOOP.
"""

import sys
from collections import defaultdict

from repro.experiments.export import latest_export, load_campaign_export

#: SCOOP's mean total at k must stay below this fraction of k times its
#: k=1 mean (sublinear with margin).
SUBLINEAR_MARGIN = 0.9

#: LOCAL's largest-k mean must exceed this multiple of its k=1 mean.
LOCAL_GROWTH_FLOOR = 2.0

#: Full-scale oracle recall floor (tuple-weighted) for SCOOP, every
#: cell — consistent with the paper's ~78% query-retrieval regime once
#: trials run at paper scale; already cleared at smoke scale.
RECALL_FLOOR = 0.6


def main() -> int:
    path = latest_export("multi_attribute")
    assert path is not None, "no multi_attribute export found"
    doc = load_campaign_export(path)

    totals = defaultdict(lambda: defaultdict(list))
    maintenance = defaultdict(list)
    recalls = defaultdict(list)
    for trial in doc["trials"]:
        k_part, policy = trial["label"].split("/")
        k = int(k_part.removeprefix("k="))
        result = trial["result"]
        totals[policy][k].append(result["total_messages"])
        metrics = result["metrics"]
        assert metrics, trial["label"]
        # per-attribute counters for every registered attribute
        assert set(metrics["attributes"]) == {f"a{a}" for a in range(k)}, (
            trial["label"],
            sorted(metrics["attributes"]),
        )
        for row in metrics["attributes"].values():
            assert row["readings_produced"] > 0, trial["label"]
        # the oracle never sees a fabricated or mis-indexed reading
        assert metrics["oracle"]["precision_violations"] == 0, trial["label"]
        if policy == "scoop":
            breakdown = result["breakdown"]
            maintenance[k].append(breakdown["summary"] + breakdown["mapping"])
            recalls[k].append(metrics["oracle"]["recall_weighted"])
            for attr in range(k):
                assert metrics["planner"].get(f"a{attr}.index_builds", 0) > 0, (
                    trial["label"],
                    attr,
                )

    assert set(totals) == {"scoop", "local", "hash"}, sorted(totals)
    ks = sorted(totals["scoop"])
    assert ks[0] == 1 and len(ks) >= 3, ks

    def mean(xs):
        return sum(xs) / len(xs)

    for k in ks:
        assert mean(totals["scoop"][k]) < mean(totals["local"][k]), k
        assert mean(recalls[k]) >= RECALL_FLOOR, (k, recalls[k])
        if k > 1:
            assert mean(totals["scoop"][k]) < SUBLINEAR_MARGIN * k * mean(
                totals["scoop"][1]
            ), (k, totals["scoop"])
            assert mean(maintenance[k]) < SUBLINEAR_MARGIN * k * mean(
                maintenance[1]
            ), (k, maintenance)
    assert mean(totals["local"][ks[-1]]) >= LOCAL_GROWTH_FLOOR * mean(
        totals["local"][1]
    ), totals["local"]

    print(
        "multi_attribute shape OK:",
        {
            policy: {k: round(mean(v)) for k, v in by_k.items()}
            for policy, by_k in totals.items()
        },
        f"scoop recall={[round(mean(recalls[k]), 2) for k in ks]}",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
