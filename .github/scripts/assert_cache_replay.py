"""CI gate for the cache-replay step.

Run after two consecutive ``run smoke --seeds 2 --export`` invocations:
the first export must record six executed trials, the second must be
served entirely from the persistent result cache (0 executed, 6 hits)
with every trial's metric breakdown intact and the same per-label total
message statistics as the first run. Asserting on the JSON export
replaces the old ``grep`` of CLI stdout, which silently passed when the
pipeline's first command failed.
"""

import sys

from repro.experiments.export import list_exports, load_campaign_export
from repro.experiments.reporting import TOTAL, label_stats


def main() -> int:
    exports = list_exports("smoke")
    assert len(exports) == 2, f"expected 2 smoke exports, found {exports}"
    first = load_campaign_export(exports[0])
    replay = load_campaign_export(exports[-1])
    assert first["execution"]["executed"] == 6, first["execution"]
    assert replay["execution"]["executed"] == 0, replay["execution"]
    assert replay["execution"]["cached"] == 6, replay["execution"]
    assert first["cache_salt"] == replay["cache_salt"]
    for trial in replay["trials"]:
        metrics = trial["result"]["metrics"]
        assert metrics["messages_sent"], trial["label"]
        assert metrics["energy_j"]["radio_tx"] > 0, trial["label"]
        total = trial["result"]["total_messages"]
        assert sum(trial["result"]["breakdown"].values()) == total, trial["label"]
    replayed = label_stats(replay, TOTAL)
    assert replayed == label_stats(first, TOTAL), replayed
    print("cache replay OK:", replay["execution"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
