"""Shared benchmark harness: campaign-backed cached runs and table output.

Benchmarks execute through the campaign engine
(:mod:`repro.experiments.campaign`): every trial is keyed by its canonical
spec hash and served from the persistent on-disk cache under
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
from typing import Iterable, List

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.runner import ExperimentResult, ExperimentSpec

RESULTS_DIR = Path(__file__).parent / "results"

#: One shared memory-over-disk cache for the whole benchmark session.
CACHE = ResultCache()


def _jobs() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def run_specs(specs: Iterable[ExperimentSpec]) -> List[ExperimentResult]:
    """Run a batch of specs as one campaign, in input order.

    Cache hits are free; misses run serially or across ``REPRO_BENCH_JOBS``
    worker processes.
    """
    campaign = Campaign.from_specs("bench", list(specs))
    return run_campaign(campaign, jobs=_jobs(), cache=CACHE).results


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
