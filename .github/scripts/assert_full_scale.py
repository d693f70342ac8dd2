"""Weekly-cron gate: paper-shape assertions on the full-scale E2 export.

Reads the latest ``fig3_middle`` campaign export (written by
``REPRO_BENCH_SCALE=1 ... run fig3_middle --export``) and checks the figure's
qualitative shape at paper scale — SCOOP cheapest by a wide margin, HASH
within an order of magnitude of BASE — catching scale-dependent
regressions the down-scaled tier-1 runs cannot see.
"""

import sys

from repro.experiments.export import latest_export, load_campaign_export


def main() -> int:
    path = latest_export("fig3_middle")
    assert path is not None, "no fig3_middle export found"
    doc = load_campaign_export(path)
    means = {
        entry["label"].split("/")[0]: entry["total"]["mean"]
        for entry in doc["labels"]
    }
    assert set(means) == {"scoop", "local", "hash", "base"}, means
    assert means["scoop"] < means["local"], means
    assert means["scoop"] < means["base"], means
    assert means["scoop"] < means["hash"], means
    assert 0.3 < means["hash"] / means["base"] < 3.0, means
    print("full-scale shape OK:", {k: round(v) for k, v in means.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
