"""Weekly-cron gate: shape assertions on the full-scale E13 export.

Reads the latest ``scaling_xl`` campaign export (written by
``REPRO_BENCH_SCALE=1 ... run scaling_xl --export``) and checks the grid's
qualitative shape at paper scale: cost grows with population for both
policies, the index keeps beating the flood at every size, the storage
pipeline survives 256 nodes, and every trial really ran under the
widened 256-node capacity (32-byte query bitmap).
"""

import sys

from repro.experiments.export import latest_export, load_campaign_export


def main() -> int:
    path = latest_export("scaling_xl")
    assert path is not None, "no scaling_xl export found"
    doc = load_campaign_export(path)

    series = {}
    for entry in doc["labels"]:
        size_part, policy = entry["label"].split("/")
        n = int(size_part.removeprefix("n="))
        series.setdefault(policy, {})[n] = entry["total"]["mean"]
    assert set(series) == {"scoop", "local"}, sorted(series)
    sizes = sorted(series["scoop"])
    assert sizes[-1] == 256, sizes
    for policy, by_n in series.items():
        totals = [by_n[n] for n in sizes]
        assert all(a < b for a, b in zip(totals, totals[1:])), (policy, totals)
    for n in sizes:
        assert series["scoop"][n] < series["local"][n], n

    stored_at_max = []
    for trial in doc["trials"]:
        scoop_cfg = trial["result"]["spec"]["scoop"]
        assert scoop_cfg["max_network_size"] == 256, trial["label"]
        if trial["label"] == f"n={sizes[-1]}/scoop":
            stored_at_max.append(trial["result"]["storage_success_rate"])
    assert stored_at_max, "no 256-node scoop trials in export"
    mean_stored = sum(stored_at_max) / len(stored_at_max)
    assert mean_stored > 0.75, stored_at_max
    print(
        "scaling_xl shape OK:",
        {p: {n: round(v) for n, v in by_n.items()} for p, by_n in series.items()},
        f"stored@256={mean_stored:.0%}",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
