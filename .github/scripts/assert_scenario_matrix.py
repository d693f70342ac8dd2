"""Nightly scenario-matrix gate: registry coverage + cache replay.

Run after the matrix job executed every registered scenario twice (each
``run <scenario> --seeds 2 --export``). Asserts, per scenario from the
live registry — never a hand-kept list, so a newly registered scenario
that the matrix somehow skipped fails here:

* at least two exports exist (first run + replay);
* the replay executed zero trials and served everything from the
  persistent result cache, under the same code salt;
* simulated trials carry their metric breakdowns intact.

The first run is *not* required to have executed anything itself: the
matrix shares one cache across scenarios, and scenarios legitimately
overlap (``loss_rates``' spec is ``fig3_middle``'s first trial), so an
earlier scenario may have simulated a later one's specs already. Identity
of specs means identity of the simulation, so the coverage claim holds
either way.
"""

import sys

from repro.experiments.export import list_exports, load_campaign_export
from repro.experiments.scenarios import scenario_names


def check_scenario(name: str) -> dict:
    exports = list_exports(name)
    assert len(exports) >= 2, f"{name}: expected run + replay exports, got {exports}"
    first = load_campaign_export(exports[0])
    replay = load_campaign_export(exports[-1])
    trials = replay["execution"]["trials"]
    assert trials > 0, f"{name}: empty campaign"
    assert first["execution"]["trials"] == trials, (name, first["execution"])
    assert replay["execution"]["executed"] == 0, (name, replay["execution"])
    assert replay["execution"]["cached"] == trials, (name, replay["execution"])
    assert first["cache_salt"] == replay["cache_salt"], name
    for trial in replay["trials"]:
        result = trial["result"]
        if not result["analytical"]:
            assert result["metrics"], (name, trial["label"])
            assert result["metrics"]["messages_sent"], (name, trial["label"])
    return replay["execution"]


def main() -> int:
    names = scenario_names()
    # The matrix is registry-driven, so registering a scenario is all it
    # takes to be exercised nightly — assert the newest additions really
    # are discovered that way rather than via a hand-edited list.
    assert "node_churn" in names, names
    assert "multi_attribute" in names, names
    assert "query_service" in names, names
    for name in names:
        execution = check_scenario(name)
        print(f"{name}: replayed {execution['cached']} trials from cache")
    print(f"scenario matrix OK: {len(names)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
