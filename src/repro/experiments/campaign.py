"""Campaign engine: trial grids, multi-seed replication, parallel runs.

A :class:`Campaign` is a batch of :class:`Trial`\\ s — scenario expansion ×
seeds — executed through one pipeline that (1) consults the persistent
:class:`~repro.experiments.cache.ResultCache` before simulating anything,
(2) optionally fans misses out over a ``ProcessPoolExecutor``, and (3)
aggregates per-label mean/stdev across seeds.

Determinism: every trial is fully specified by its spec (the RNG seed is a
spec field), and serial and parallel execution share one code path — the
worker serializes the spec with :meth:`ExperimentSpec.to_dict`,
reconstructs it, runs, and returns :meth:`ExperimentResult.to_dict` — so
a campaign run with ``jobs=N`` is bit-identical to ``jobs=1``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.reporting import sample_stats
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    is_analytical,
    run_experiment,
    run_hash_analytical,
    spec_key,
)
from repro.experiments.scenarios import canonical_scenario_name, scenario_trials


@dataclass
class Trial:
    """One executable unit of a campaign: a spec and its label."""

    spec: ExperimentSpec
    #: Stable trial identity *within* the campaign; seeds sharing a label
    #: aggregate together.
    label: str = ""
    #: Scenario this trial came from ("" for ad-hoc campaigns).
    scenario: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = f"{self.spec.policy}/{self.spec.workload}"

    @property
    def key(self) -> str:
        """Canonical cache key of this trial."""
        return spec_key(self.spec)


@dataclass
class TrialResult:
    trial: Trial
    result: ExperimentResult
    #: True when served from the cache without executing a simulation.
    from_cache: bool = False


@dataclass
class LabelAggregate:
    """Across-seed statistics for one trial label."""

    label: str
    n: int
    seeds: Tuple[int, ...]
    mean_total: float
    stdev_total: float
    mean_breakdown: Dict[str, float]
    #: 95% confidence half-width of the total (Student t; 0 for one seed).
    ci95_total: float = 0.0
    stdev_breakdown: Dict[str, float] = field(default_factory=dict)
    ci95_breakdown: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form used by the campaign export (grouped per
        statistic so plotting code reads ``total.mean``/``total.ci95``)."""
        return {
            "label": self.label,
            "n": self.n,
            "seeds": list(self.seeds),
            "total": {
                "mean": self.mean_total,
                "stdev": self.stdev_total,
                "ci95": self.ci95_total,
            },
            "breakdown": {
                cat: {
                    "mean": self.mean_breakdown[cat],
                    "stdev": self.stdev_breakdown.get(cat, 0.0),
                    "ci95": self.ci95_breakdown.get(cat, 0.0),
                }
                for cat in self.mean_breakdown
            },
        }


@dataclass
class CampaignResult:
    name: str
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def results(self) -> List[ExperimentResult]:
        return [t.result for t in self.trials]

    @property
    def executed(self) -> int:
        """Trials that actually ran a simulation/model this campaign."""
        return sum(1 for t in self.trials if not t.from_cache)

    @property
    def cached(self) -> int:
        return sum(1 for t in self.trials if t.from_cache)

    def by_label(self) -> Dict[str, List[TrialResult]]:
        """Trial results grouped by label, in first-seen order."""
        groups: Dict[str, List[TrialResult]] = {}
        for tr in self.trials:
            groups.setdefault(tr.trial.label, []).append(tr)
        return groups

    def aggregates(self) -> List[LabelAggregate]:
        """Per-label mean/stdev/95% CI across seeds (0 spread for one
        seed)."""
        out: List[LabelAggregate] = []
        for label, group in self.by_label().items():
            totals = [tr.result.total_messages for tr in group]
            categories: Dict[str, List[float]] = {}
            for tr in group:
                for cat, count in tr.result.breakdown.items():
                    categories.setdefault(cat, []).append(count)
            mean_total, stdev_total, ci95_total = sample_stats(totals)
            per_cat = {cat: sample_stats(vals) for cat, vals in categories.items()}
            out.append(
                LabelAggregate(
                    label=label,
                    n=len(group),
                    seeds=tuple(tr.trial.spec.seed for tr in group),
                    mean_total=mean_total,
                    stdev_total=stdev_total,
                    ci95_total=ci95_total,
                    mean_breakdown={cat: s[0] for cat, s in per_cat.items()},
                    stdev_breakdown={cat: s[1] for cat, s in per_cat.items()},
                    ci95_breakdown={cat: s[2] for cat, s in per_cat.items()},
                )
            )
        return out


@contextmanager
def _scale_override(scale: Optional[float]):
    """Temporarily pin ``REPRO_BENCH_SCALE`` (scenario expansion reads it)."""
    if scale is None:
        yield
        return
    saved = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = str(scale)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_BENCH_SCALE", None)
        else:
            os.environ["REPRO_BENCH_SCALE"] = saved


@dataclass
class Campaign:
    """A named batch of trials, ready to run (and re-run, cached)."""

    name: str
    trials: List[Trial] = field(default_factory=list)

    @classmethod
    def from_scenario(
        cls,
        scenario: str,
        seeds: Sequence[int] = (1,),
        scale: Optional[float] = None,
    ) -> "Campaign":
        """Expand a named scenario × ``seeds`` into a trial grid.

        E/A aliases canonicalize here, so a campaign run as ``E13`` is
        named (and exported/reported/plotted as) ``scaling_xl``.
        ``scale`` overrides ``REPRO_BENCH_SCALE`` for the expansion: an
        explicit argument beats the environment.
        """
        scenario = canonical_scenario_name(scenario)
        trials: List[Trial] = []
        with _scale_override(scale):
            for seed in seeds:
                for label, spec in scenario_trials(scenario, seed=seed):
                    trials.append(Trial(spec=spec, label=label, scenario=scenario))
        return cls(name=scenario, trials=trials)

    @classmethod
    def from_specs(
        cls,
        name: str,
        specs: Iterable[Union[ExperimentSpec, Tuple[str, ExperimentSpec]]],
    ) -> "Campaign":
        """An ad-hoc campaign over explicit specs or ``(label, spec)`` pairs."""
        trials: List[Trial] = []
        for item in specs:
            if isinstance(item, ExperimentSpec):
                label, spec = "", item
            else:
                label, spec = item
            trials.append(Trial(spec=spec, label=label))
        return cls(name=name, trials=trials)


def _init_worker(plugins: Dict[str, "registry.PolicyFactory"]) -> None:
    """Re-register plug-in policies in a pool worker.

    Under spawn-based multiprocessing (macOS/Windows) a worker's registry
    holds only the built-in four; without this, a campaign over a
    plug-in policy would fail spec validation in the worker while
    succeeding serially. Requires plug-in factories to be picklable
    (module-level callables).
    """
    for name, factory in plugins.items():
        if not registry.is_registered(name):
            registry.register_policy(name, factory)


def _execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one trial from its serialized form (the process-pool worker).

    Serial execution calls this in-process so both modes share one code
    path: dict → spec → run → dict.
    """
    spec = ExperimentSpec.from_dict(payload["spec"])
    if is_analytical(spec):
        result = run_hash_analytical(spec)
    else:
        result = run_experiment(spec)
    return {"index": payload["index"], "result": result.to_dict()}


def run_campaign(
    campaign: Campaign,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> CampaignResult:
    """Execute every trial of ``campaign``; cache first, then simulate.

    ``jobs > 1`` fans cache misses out over a process pool. Results are
    deterministic and identical to a serial run regardless of ``jobs``.
    Completed trials are cached as they finish, so one failing trial
    never discards sibling results. Trials sharing one spec key
    (duplicate specs) simulate once; the
    extra copies are reported as cache hits. ``refresh`` re-executes
    trials even on a cache hit (and overwrites the cached entry);
    ``use_cache=False`` neither reads nor writes the cache.
    """
    if use_cache and cache is None:
        cache = ResultCache()
    trials = campaign.trials
    outcomes: List[Optional[TrialResult]] = [None] * len(trials)

    # Misses grouped by spec key, so duplicate specs execute once.
    pending_by_key: Dict[str, List[int]] = {}
    for i, trial in enumerate(trials):
        if use_cache and not refresh:
            hit = cache.get(trial.key)
            if hit is not None:
                outcomes[i] = TrialResult(trial, hit, from_cache=True)
                continue
        pending_by_key.setdefault(trial.key, []).append(i)

    payloads = [
        {"index": indices[0], "spec": trials[indices[0]].spec.to_dict()}
        for indices in pending_by_key.values()
    ]

    def settle(item: Dict[str, object]) -> None:
        # Cache each trial the moment it completes, so a failure or
        # interruption later in the campaign never discards finished work.
        first = item["index"]
        result = ExperimentResult.from_dict(item["result"])
        if use_cache:
            cache.put(trials[first].key, result)
        for i in pending_by_key[trials[first].key]:
            outcomes[i] = TrialResult(trials[i], result, from_cache=i != first)

    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(payloads)),
            initializer=_init_worker,
            initargs=(registry.plugin_policies(),),
        ) as pool:
            futures = [pool.submit(_execute_payload, p) for p in payloads]
            error: Optional[BaseException] = None
            for future in as_completed(futures):
                try:
                    settle(future.result())
                except BaseException as exc:  # settle everything that ran
                    if error is None:
                        error = exc
            if error is not None:
                raise error
    else:
        for payload in payloads:
            settle(_execute_payload(payload))

    return CampaignResult(name=campaign.name, trials=list(outcomes))
