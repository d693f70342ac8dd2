"""Every registered scenario with a claim check, regenerated and checked.

One case per scenario with an E/A id (DESIGN.md's experiment index names
the paper figure or section each one regenerates, and the paper's
numbers). A case runs its scenario at seed 1 and ``REPRO_BENCH_SCALE``
through the campaign engine, exactly as ``python -m repro.experiments
run <scenario>`` does, writes the markdown ``report`` prints for the
campaign's export to ``benchmarks/results/<scenario>.txt``, and asserts
the scenario's registered claim check, the check ``report`` runs.

Every trial is keyed by its canonical spec hash and served from the
persistent on-disk cache under ``benchmarks/results/cache/`` when
available, so specs shared across scenarios, and across pytest
sessions, run at most once. Set ``REPRO_BENCH_JOBS=N`` to fan a
scenario's trials out over N worker processes (results are identical to
a serial run).
"""

import os

import pytest
from _harness import emit

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.export import campaign_to_dict
from repro.experiments.reporting import figure_table_markdown
from repro.experiments.scenarios import SCENARIOS, bench_scale, check_export

#: One shared memory-over-disk cache for the whole benchmark session.
CACHE = ResultCache()

CHECKED = [name for name, scenario in SCENARIOS.items() if scenario.check]


@pytest.mark.parametrize("scenario", CHECKED)
def test_scenario(benchmark, scenario):
    jobs = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    out = benchmark.pedantic(
        run_campaign,
        args=(Campaign.from_scenario(scenario),),
        kwargs={"jobs": jobs, "cache": CACHE},
        rounds=1,
        iterations=1,
    )
    doc = campaign_to_dict(out, jobs=jobs, scale=bench_scale())
    emit(scenario, figure_table_markdown(doc))
    failed = check_export(doc)
    assert not failed, "claims failed:\n" + "\n".join(failed)
