"""Shared benchmark harness: registered scenarios as cached campaigns.

Each figure benchmark runs its registered scenario
(:mod:`repro.experiments.scenarios`) at seed 1 through the campaign
engine (:mod:`repro.experiments.campaign`), exactly as ``python -m
repro.experiments run <scenario>`` does, and then asserts the scenario's
registered claim check on the campaign's export document — the check
``report`` runs. Every trial is keyed by its canonical spec hash and
served from the persistent on-disk cache under
``benchmarks/results/cache/`` when available, so repeated specs across
benchmark files — and across pytest sessions — run at most once. Set
``REPRO_BENCH_JOBS=N`` to fan a benchmark's trials out over N worker
processes (results are identical to a serial run). Cache keys are salted
with a hash of the ``repro`` source tree, so editing simulator code
invalidates stale entries automatically. Every benchmark writes its
rendered table to
``benchmarks/results/<name>.txt`` and prints it, so a benchmark run leaves
the regenerated figures on disk.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import Campaign, CampaignResult, run_campaign
from repro.experiments.export import campaign_to_dict
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import bench_scale, check_export

RESULTS_DIR = Path(__file__).parent / "results"

#: One shared memory-over-disk cache for the whole benchmark session.
CACHE = ResultCache()


def _jobs() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def run_scenario(benchmark, name: str) -> CampaignResult:
    """Run registered scenario ``name`` at seed 1 and ``REPRO_BENCH_SCALE``
    as one campaign, timed once by pytest-benchmark's ``benchmark``
    fixture. Cache hits are free; misses run serially or across
    ``REPRO_BENCH_JOBS`` worker processes."""
    return benchmark.pedantic(
        run_campaign,
        args=(Campaign.from_scenario(name),),
        kwargs={"jobs": _jobs(), "cache": CACHE},
        rounds=1,
        iterations=1,
    )


def by_label(out: CampaignResult) -> Dict[str, ExperimentResult]:
    """One seed's results, by trial label."""
    return {tr.trial.label: tr.result for tr in out.trials}


def assert_claims(out: CampaignResult) -> None:
    """Assert the scenario's registered check passes on this campaign."""
    failed = check_export(campaign_to_dict(out, scale=bench_scale()))
    assert not failed, "claims failed:\n" + "\n".join(failed)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
