"""Named experiment scenarios: one per figure/table of the paper.

Each scenario function returns the list of :class:`ExperimentSpec` trials
that regenerate the corresponding figure, at a time scale controlled by the
``REPRO_BENCH_SCALE`` environment variable (default 0.15 of the paper's
40-minute runs so the whole benchmark suite finishes in minutes; set
``REPRO_BENCH_SCALE=1`` for paper-scale runs). Scaling
shrinks only the duration — all rates stay at the paper's values — so the
policy *ratios* the figures compare are preserved.

The experiment ids (E1..E9, E11..E15, A1, A2) are indexed in DESIGN.md;
E11..E15 go past the paper (topology profiles, a link-loss sweep,
64..256-node scaling under a widened query bitmap, node churn with
failure injection, and multi-attribute indexing with per-attribute
storage indexes sharing one dissemination epoch).
"""

from __future__ import annotations

import dataclasses
import difflib
import os
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
from repro.experiments.reporting import (
    TOTAL,
    Reader,
    label_stats,
    metric_reader,
    result_reader,
    sweep_point,
)
from repro.experiments.runner import ExperimentSpec, scale_spec
from repro.workloads.queries import QueryPlanConfig

#: Value domain of the REAL light trace (paper: "V was at about 150").
REAL_DOMAIN = ValueDomain(0, 149)
#: Value domain of the synthetic sources (paper: "range [0,100]").
SYNTH_DOMAIN = ValueDomain(0, 100)


def bench_scale() -> float:
    """The time-scale factor benchmarks run at (env-controlled)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))


def _config(domain: ValueDomain, **overrides) -> ScoopConfig:
    return ScoopConfig(domain=domain, **overrides)


def _spec(
    policy: str, workload: str, domain: ValueDomain, seed: int = 1, **kw
) -> ExperimentSpec:
    config_kw = {k: v for k, v in kw.items() if k in ScoopConfig.__dataclass_fields__}
    other_kw = {k: v for k, v in kw.items() if k not in config_kw}
    spec = ExperimentSpec(
        policy=policy,
        workload=workload,
        scoop=_config(domain, **config_kw),
        seed=seed,
        **other_kw,
    )
    return scale_spec(spec, bench_scale())


# ----------------------------------------------------------------------
# E1 — Figure 3 (left): testbed cost breakdown by message type
# ----------------------------------------------------------------------
def fig3_left(seed: int = 1) -> List[ExperimentSpec]:
    """scoop/unique, scoop/gaussian, local/gaussian, base/gaussian."""
    return [
        _spec("scoop", "unique", SYNTH_DOMAIN, seed),
        _spec("scoop", "gaussian", SYNTH_DOMAIN, seed),
        _spec("local", "gaussian", SYNTH_DOMAIN, seed),
        _spec("base", "gaussian", SYNTH_DOMAIN, seed),
    ]


# ----------------------------------------------------------------------
# E2 — Figure 3 (middle): SCOOP vs LOCAL vs HASH vs BASE on REAL
# ----------------------------------------------------------------------
def fig3_middle(seed: int = 1) -> List[ExperimentSpec]:
    return [
        _spec("scoop", "real", REAL_DOMAIN, seed),
        _spec("local", "real", REAL_DOMAIN, seed),
        _spec("hash", "real", REAL_DOMAIN, seed),
        _spec("base", "real", REAL_DOMAIN, seed),
    ]


# ----------------------------------------------------------------------
# E3 — Figure 3 (right): SCOOP across data sources
# ----------------------------------------------------------------------
def fig3_right(seed: int = 1) -> List[ExperimentSpec]:
    specs = []
    for workload in ("unique", "equal", "real", "gaussian", "random"):
        domain = REAL_DOMAIN if workload == "real" else SYNTH_DOMAIN
        specs.append(_spec("scoop", workload, domain, seed))
    return specs


# ----------------------------------------------------------------------
# E4 — Figure 4: cost vs percentage of nodes queried
# ----------------------------------------------------------------------
def fig4_selectivity(
    seed: int = 1, fractions: Sequence[float] = (0.05, 0.20, 0.40, 0.60, 0.80, 1.00)
) -> List[Tuple[float, List[ExperimentSpec]]]:
    """Node-list queries naming a growing fraction of the sensors."""
    out = []
    for frac in fractions:
        plan = QueryPlanConfig(kind="nodes", node_frac=frac)
        trio = []
        for policy in ("scoop", "local", "base"):
            spec = _spec(policy, "real", REAL_DOMAIN, seed)
            trio.append(dataclasses.replace(spec, query_plan=plan))
        out.append((frac, trio))
    return out


# ----------------------------------------------------------------------
# E5 — Figure 5: cost vs query interval
# ----------------------------------------------------------------------
def fig5_query_interval(
    seed: int = 1, intervals: Sequence[float] = (5.0, 10.0, 15.0, 30.0, 45.0)
) -> List[Tuple[float, List[ExperimentSpec]]]:
    out = []
    for interval in intervals:
        trio = []
        for policy in ("scoop", "local", "base"):
            spec = _spec(policy, "real", REAL_DOMAIN, seed, query_interval=interval)
            trio.append(spec)
        out.append((interval, trio))
    return out


# ----------------------------------------------------------------------
# E6 — loss rates (storage success / owner hit / query retrieval)
# ----------------------------------------------------------------------
def loss_rates(seed: int = 1) -> ExperimentSpec:
    return _spec("scoop", "real", REAL_DOMAIN, seed)


# ----------------------------------------------------------------------
# E7 — root-node load skew and battery lifetimes
# ----------------------------------------------------------------------
def root_skew(seed: int = 1) -> List[ExperimentSpec]:
    return [
        _spec("scoop", "real", REAL_DOMAIN, seed),
        _spec("base", "real", REAL_DOMAIN, seed),
        _spec("local", "real", REAL_DOMAIN, seed),
    ]


# ----------------------------------------------------------------------
# E8 — scaling with network size (REAL less sensitive, RANDOM more)
# ----------------------------------------------------------------------
def scaling(
    seed: int = 1, sizes: Sequence[int] = (25, 63, 100)
) -> List[Tuple[int, List[ExperimentSpec]]]:
    out = []
    for n in sizes:
        pair = [
            _spec("scoop", "real", REAL_DOMAIN, seed, n_nodes=n),
            _spec("scoop", "random", SYNTH_DOMAIN, seed, n_nodes=n),
        ]
        out.append((n, pair))
    return out


# ----------------------------------------------------------------------
# E9 — sample-interval sweep (differences wash out at low data rates)
# ----------------------------------------------------------------------
def sample_interval_sweep(
    seed: int = 1, intervals: Sequence[float] = (15.0, 30.0, 60.0, 120.0)
) -> List[Tuple[float, List[ExperimentSpec]]]:
    out = []
    for interval in intervals:
        specs = []
        for workload in ("unique", "gaussian", "random"):
            specs.append(
                _spec("scoop", workload, SYNTH_DOMAIN, seed, sample_interval=interval)
            )
        out.append((interval, specs))
    return out


# ----------------------------------------------------------------------
# A1 — ablation: owner sets and range placement (Section 4 extensions)
# ----------------------------------------------------------------------
def ablation_extensions(seed: int = 1) -> Dict[str, ExperimentSpec]:
    return {
        "single-owner": _spec("scoop", "gaussian", SYNTH_DOMAIN, seed),
        "owner-set-2": _spec(
            "scoop", "gaussian", SYNTH_DOMAIN, seed, max_owners_per_value=2
        ),
        "range-width-10": _spec(
            "scoop", "gaussian", SYNTH_DOMAIN, seed, range_placement_width=10
        ),
    }


# ----------------------------------------------------------------------
# A2 — ablation: statistics staleness (remap-rate sweep)
# ----------------------------------------------------------------------
def ablation_statistics(
    seed: int = 1, remap_intervals: Sequence[float] = (120.0, 240.0, 480.0)
) -> List[Tuple[float, ExperimentSpec]]:
    return [
        (interval, _spec("scoop", "real", REAL_DOMAIN, seed, remap_interval=interval))
        for interval in remap_intervals
    ]


# ----------------------------------------------------------------------
# SMOKE — a minutes-scale micro-grid for CI and engine tests
# ----------------------------------------------------------------------
def smoke(seed: int = 1) -> List[ExperimentSpec]:
    """Three policies on a 14-node network with short timers.

    Unlike the paper scenarios this ignores ``REPRO_BENCH_SCALE``: it is
    already as small as the topology generator reliably supports, and CI
    plus the campaign-engine tests rely on its few-second runtime.
    """
    config = dict(
        n_nodes=14,
        domain=ValueDomain(0, 20),
        sample_interval=5.0,
        query_interval=10.0,
        summary_interval=20.0,
        remap_interval=40.0,
        stabilization=60.0,
        duration=120.0,
        beacon_interval=5.0,
        query_reply_window=8.0,
    )
    return [
        ExperimentSpec(
            policy=policy,
            workload="gaussian",
            scoop=ScoopConfig(**config),
            seed=seed,
        )
        for policy in ("scoop", "local", "base")
    ]


# ----------------------------------------------------------------------
# Past-the-paper grids: topology profiles, loss sweep, XL scaling
# ----------------------------------------------------------------------

#: Per-link loss given to the lossless line/grid lattices so they sit in
#: the paper's loss regime ("25 to about 90 percent" across audible
#: pairs) instead of comparing ideal lattices against lossy testbeds.
LATTICE_LINK_LOSS = 0.3

#: Query-bitmap capacity of the XL scaling grid: double the paper's
#: 128-node implementation limit, so every query carries a 32-byte
#: bitmap (``ScoopConfig.query_bitmap_bytes``).
XL_NETWORK_CAPACITY = 256


def topology_profiles(
    seed: int = 1,
    n: int = 63,
    kinds: Sequence[str] = ("line", "grid", "geometric", "testbed"),
) -> List[Tuple[str, List[ExperimentSpec]]]:
    """SCOOP vs LOCAL across topology generators at the testbed size."""
    out = []
    for kind in kinds:
        link_loss = LATTICE_LINK_LOSS if kind in ("line", "grid") else 0.0
        pair = [
            _spec(
                policy,
                "real",
                REAL_DOMAIN,
                seed,
                n_nodes=n,
                topology_kind=kind,
                link_loss=link_loss,
            )
            for policy in ("scoop", "local")
        ]
        out.append((kind, pair))
    return out


def loss_sweep(
    seed: int = 1,
    losses: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
) -> List[Tuple[float, List[ExperimentSpec]]]:
    """SCOOP vs LOCAL as every testbed link degrades by 0..50% extra
    loss (:func:`repro.sim.topology.degrade`)."""
    out = []
    for extra in losses:
        pair = [
            _spec(policy, "real", REAL_DOMAIN, seed, link_loss=extra)
            for policy in ("scoop", "local")
        ]
        out.append((extra, pair))
    return out


#: E14 protocol timing: summaries/remaps run faster than the paper's
#: defaults and staleness is declared after two silent summary intervals,
#: so a node death is detected, evicted, and its range reassigned well
#: within even a down-scaled measured phase. Identical across the sweep —
#: trials differ only in churn rate.
CHURN_TIMING = dict(
    summary_interval=60.0,
    remap_interval=120.0,
    node_staleness_intervals=2.0,
)


def node_churn(
    seed: int = 1, rates: Sequence[float] = (0.0, 0.15, 0.3, 0.45)
) -> List[Tuple[float, List[ExperimentSpec]]]:
    """SCOOP vs LOCAL while 0..45% of the sensors die mid-run.

    Failure injection (:mod:`repro.sim.failure`) silences each victim's
    radio and orphans its flash at a seeded random time; the basestation's
    staleness eviction reassigns dead owners' ranges at the next remap.
    The retrieval-completeness series is the scenario's headline metric.
    """
    out = []
    for rate in rates:
        pair = [
            _spec(
                policy,
                "real",
                REAL_DOMAIN,
                seed,
                churn_rate=rate,
                **CHURN_TIMING,
            )
            for policy in ("scoop", "local")
        ]
        out.append((rate, pair))
    return out


#: E15 attribute palette: the motivating deployments' sensor board.
#: Attribute 0 keeps the synthetic [0, 100] domain (it *is* the legacy
#: attribute); the others get deliberately different domain widths so
#: per-attribute domains, histograms and indexes are genuinely exercised.
MULTI_ATTRIBUTES: Tuple[Tuple[str, ValueDomain], ...] = (
    ("temperature", SYNTH_DOMAIN),
    ("light", ValueDomain(0, 149)),
    ("humidity", ValueDomain(0, 80)),
    ("voltage", ValueDomain(0, 60)),
)


def multi_attribute_grid(
    seed: int = 1, ks: Sequence[int] = (1, 2, 4)
) -> List[Tuple[int, List[ExperimentSpec]]]:
    """SCOOP vs LOCAL vs HASH at k ∈ {1, 2, 4} concurrent attributes.

    Every trial samples all k attributes per tick (correlated gaussian
    streams) and issues one query per attribute per 15-second base
    interval — the per-attribute query rate is held constant, so a user
    monitoring k attributes costs LOCAL k× the query floods while
    SCOOP's summaries and mapping epochs are shared across attributes.
    """
    out = []
    for k in ks:
        attrs = tuple(
            AttributeSpec(name, domain) for name, domain in MULTI_ATTRIBUTES[:k]
        )
        plan = QueryPlanConfig(n_attributes=k)
        specs = []
        for policy in ("scoop", "local", "hash"):
            spec = _spec(
                policy,
                "gaussian",
                attrs[0].domain,
                seed,
                attributes=attrs,
                query_interval=15.0 / k,
                # simulate HASH here (not the paper's analytical model):
                # every E15 cell then carries per-attribute counters and
                # the oracle scorecard in its structured metrics.
                hash_simulated=True,
            )
            specs.append(dataclasses.replace(spec, query_plan=plan))
        out.append((k, specs))
    return out


def scaling_xl(
    seed: int = 1, sizes: Sequence[int] = (64, 128, 192, 256)
) -> List[Tuple[int, List[ExperimentSpec]]]:
    """SCOOP vs LOCAL at 64..256 nodes under a 256-node query bitmap.

    The whole series runs at ``XL_NETWORK_CAPACITY`` so trials differ
    only in population, not deployment capacity: every query is priced
    with the widened 32-byte bitmap at every size.
    """
    out = []
    for n in sizes:
        pair = [
            _spec(
                policy,
                "real",
                REAL_DOMAIN,
                seed,
                n_nodes=n,
                max_network_size=XL_NETWORK_CAPACITY,
            )
            for policy in ("scoop", "local")
        ]
        out.append((n, pair))
    return out


# ----------------------------------------------------------------------
# E16 — query service: offered-load sweep through the serving layer
# ----------------------------------------------------------------------

#: E16 protocol timing: a small resident network with brisk remaps (so
#: the epoch-keyed answer cache sees several invalidations per trial)
#: and a reply window shorter than the batch interval (so the serving
#: loop never runs the clock past a batch boundary). Identical across
#: the sweep — trials differ only in offered load.
SERVICE_TIMING = dict(
    n_nodes=24,
    sample_interval=10.0,
    summary_interval=60.0,
    remap_interval=180.0,
    query_interval=12.0,
    query_reply_window=8.0,
)


def query_service(
    seed: int = 1, loads: Sequence[float] = (0.05, 0.2, 0.6, 1.5)
) -> List[Tuple[float, List[ExperimentSpec]]]:
    """SCOOP vs LOCAL serving an external query stream at rising load.

    Each trial keeps one resident deployment behind the serving layer
    (:mod:`repro.service`): Poisson request arrivals at ``service_qps``
    are admitted against a bounded queue, coalesced per cache bucket,
    batched once per query interval, and answered from an epoch-keyed
    hot cache when possible. The scenario's headline series are the
    latency percentiles, cache hit rate and shed rate as offered load
    sweeps past the batch capacity.
    """
    out = []
    for qps in loads:
        pair = [
            _spec(
                policy,
                "gaussian",
                SYNTH_DOMAIN,
                seed,
                service_qps=qps,
                **SERVICE_TIMING,
            )
            for policy in ("scoop", "local")
        ]
        out.append((qps, pair))
    return out


# ----------------------------------------------------------------------
# Campaign-facing registry: scenario name -> labelled trial list
# ----------------------------------------------------------------------
#
# The figure functions above keep their paper-shaped return types (lists,
# (x, specs) series, dicts); the campaign engine needs one uniform shape.
# Each registered scenario is a builder ``f(seed) -> [(label, spec), ...]``
# where the label identifies the trial *within* the scenario (seeds of the
# same label aggregate together); its docstring's first line is the
# scenario's description in ``python -m repro.experiments list``.
#
# Every scenario with an experiment id also registers its *check*: the
# paper's claims about that figure, over the scenario's campaign export
# (the document ``export.campaign_to_dict`` builds). A check returns the
# claims that fail, as text, so an empty list means the figure has the
# paper's shape. Per-trial invariants hold on every trial; comparisons
# hold on per-label means across seeds (``reporting.label_stats``), so a
# one-seed export checks each trial itself. ``report`` and the benchmarks
# run the same checks. A bound that differs between down-scaled and
# paper-scale runs reads the export's ``scale``.

LabelledSpecs = List[Tuple[str, ExperimentSpec]]

#: A claim check: campaign export -> the claims it fails.
Check = Callable[[Dict[str, object]], List[str]]


@dataclasses.dataclass(frozen=True)
class ScenarioDef:
    """One registry entry: how to build a scenario, and what it shows."""

    name: str
    build: Callable[[int], LabelledSpecs]
    description: str
    #: DESIGN.md experiment id ("E2", "A1", ...), usable as a CLI alias.
    alias: str = ""
    #: The scenario's claims over its export; every scenario with an
    #: experiment id has one.
    check: Optional[Check] = None


SCENARIOS: Dict[str, ScenarioDef] = {}

#: Experiment ids (DESIGN.md) as aliases for the scenario names (derived
#: from the registrations below, never hand-kept).
SCENARIO_ALIASES: Dict[str, str] = {}


def register_scenario(
    name: str, alias: str = "", check: Optional[Check] = None
) -> Callable:
    """Register a scenario builder; its docstring's first line becomes
    the registry description (the CLI ``list`` output and CI's scenario
    matrix both read the registry, so a scenario cannot exist without a
    description or land unexercised). A scenario with an experiment id
    must register its ``check``, so none lands unchecked."""

    def _register(fn: Callable[[int], LabelledSpecs]) -> Callable:
        if name in SCENARIOS or name in SCENARIO_ALIASES:
            raise ValueError(f"scenario {name!r} is already registered")
        doc = (fn.__doc__ or "").strip()
        if not doc and sys.flags.optimize < 2:
            # Under -OO docstrings are stripped wholesale; everywhere
            # else a description is mandatory.
            raise ValueError(f"scenario {name!r} needs a one-line docstring")
        if alias and check is None:
            raise ValueError(f"scenario {name!r} ({alias}) needs a check")
        description = doc.splitlines()[0].strip() if doc else name
        SCENARIOS[name] = ScenarioDef(name, fn, description, alias, check)
        if alias:
            if alias in SCENARIO_ALIASES or alias in SCENARIOS:
                raise ValueError(f"scenario alias {alias!r} is already taken")
            SCENARIO_ALIASES[alias] = name
        return fn

    return _register


def _policy_labels(specs: Iterable[ExperimentSpec]) -> LabelledSpecs:
    return [(f"{s.policy}/{s.workload}", s) for s in specs]


def _series_labels(prefix: str, series) -> LabelledSpecs:
    out: LabelledSpecs = []
    for x, specs in series:
        for s in specs:
            out.append((f"{prefix}={x:g}/{s.policy}/{s.workload}", s))
    return out


T = TypeVar("T")


def sweep(values: Dict[str, T]) -> Dict[str, Dict[str, T]]:
    """A sweep's per-label values as ``{x: {series: value}}``, in grid
    order: label ``n=64/scoop`` is ``x`` ``"64"``, series ``"scoop"``."""
    grid: Dict[str, Dict[str, T]] = {}
    for label, value in values.items():
        point = sweep_point(label)
        if point is None:
            raise ValueError(f"{label!r} is not a sweep label")
        _param, x, series = point
        grid.setdefault(x, {})[series] = value
    return grid


def _series(grid: Dict[str, Dict[str, float]], name: str) -> List[float]:
    """One series of a :func:`sweep`, in grid order."""
    return [cell[name] for cell in grid.values()]


def _means(doc: Dict[str, object], read: Reader) -> Dict[str, float]:
    """Per-label means of ``read(result)`` across the export's seeds."""
    return {label: mean for label, (mean, _ci) in label_stats(doc, read).items()}


_stored = result_reader("storage_success_rate")


def _sent(result: Dict[str, object], kind: str) -> float:
    """Messages of ``kind`` in the trial's transmission census."""
    return result["metrics"]["messages_sent"].get(kind, 0)


def _paper_scale(doc: Dict[str, object]) -> bool:
    """Whether the export ran at the paper's 40-minute scale."""
    return float(doc["scale"]) >= 1.0


def _claim(holds: bool, text: str, *values: float) -> Tuple[bool, str]:
    """A claim, stated with the measured values it rests on."""
    return holds, f"{text} ({', '.join(str(round(v, 3)) for v in values)})"


def _failed(*claims: Tuple[bool, str]) -> List[str]:
    """The text of each claim that does not hold."""
    return [text for holds, text in claims if not holds]


def _every_trial(
    doc: Dict[str, object],
    claim: str,
    holds: Callable[[Dict[str, object]], bool],
    where: str = "",
) -> List[str]:
    """``claim`` as a per-trial invariant: ``holds(result)`` for every
    trial whose label contains ``where``; one failed claim per trial
    that breaks it."""
    return [
        f"{trial['label']} seed {trial['seed']}: {claim}"
        for trial in doc["trials"]
        if where in trial["label"] and not holds(trial["result"])
    ]


def check_export(doc: Dict[str, object]) -> List[str]:
    """The claims campaign export ``doc`` fails under its scenario's
    registered check (none for a scenario without one). The checks read
    the grid by label, so an export whose trial labels are not the
    registered grid's, in order, fails that claim alone."""
    scenario = SCENARIOS[str(doc["name"])]
    if scenario.check is None:
        return []
    expected = [label for label, _spec in scenario.build(1)]
    found = list(dict.fromkeys(str(trial["label"]) for trial in doc["trials"]))
    if found != expected:
        return [f"the trial labels are the registered grid {expected}: {found}"]
    return scenario.check(doc)


def _check_fig3_left(doc: Dict[str, object]) -> List[str]:
    total = _means(doc, TOTAL)
    unique, gaussian = total["scoop/unique"], total["scoop/gaussian"]
    local, base = total["local/gaussian"], total["base/gaussian"]
    cost_kinds = ("data", "summary", "mapping", "query", "reply")
    return (
        _failed(
            _claim(gaussian < local, "SCOOP costs less than LOCAL", gaussian, local),
            _claim(gaussian < base, "SCOOP costs less than BASE", gaussian, base),
            _claim(
                unique <= 1.1 * gaussian,
                "UNIQUE costs SCOOP at most 1.1x GAUSSIAN",
                unique,
                gaussian,
            ),
        )
        + _every_trial(
            doc,
            "BASE sends no summary, mapping, query or reply messages",
            lambda r: _sent(r, "summary") == 0
            and _sent(r, "mapping") == 0
            and _sent(r, "query") + _sent(r, "reply") == 0,
            "base/",
        )
        + _every_trial(
            doc,
            "LOCAL sends no data or summary messages",
            lambda r: _sent(r, "data") == 0 and _sent(r, "summary") == 0,
            "local/",
        )
        + _every_trial(
            doc,
            "the Figure-3 categories sum to the total",
            lambda r: sum(r["breakdown"].values()) == r["total_messages"],
        )
        + _every_trial(
            doc,
            "data, summary, mapping, query and reply sends sum to the total",
            lambda r: sum(_sent(r, kind) for kind in cost_kinds) == r["total_messages"],
        )
    )


@register_scenario("fig3_left", alias="E1", check=_check_fig3_left)
def _scn_fig3_left(seed: int) -> LabelledSpecs:
    """Figure 3 (left): testbed cost breakdown by message type."""
    return _policy_labels(fig3_left(seed))


def _pays_for_its_index(result: Dict[str, object]) -> bool:
    """Section 2.1's premise, measured: radio energy dominates flash by
    orders of magnitude, and SCOOP pays a real mapping cost."""
    energy, planner = result["metrics"]["energy_j"], result["metrics"]["planner"]
    return (
        energy["radio_tx"] > 100 * energy["flash_write"]
        and _sent(result, "mapping") > 0
        and planner.get("model_builds", 0) >= 1
        and planner.get("dijkstra_runs", 0) > 0
    )


def _check_fig3_middle(doc: Dict[str, object]) -> List[str]:
    total = _means(doc, TOTAL)
    scoop, local, hash_, base = (
        total[f"{policy}/real"] for policy in ("scoop", "local", "hash", "base")
    )
    return (
        _failed(
            _claim(scoop < local, "SCOOP costs less than LOCAL", scoop, local),
            _claim(scoop < base, "SCOOP costs less than BASE", scoop, base),
            _claim(scoop < hash_, "SCOOP costs less than HASH", scoop, hash_),
            _claim(0.3 < hash_ / base < 3.0, "HASH costs 0.3x to 3x BASE", hash_, base),
        )
        + _every_trial(
            doc,
            "HASH is evaluated analytically, with no simulator metrics",
            lambda r: r["analytical"] and r["metrics"] is None,
            "hash/",
        )
        + _every_trial(
            doc,
            "radio energy is over 100x flash writes, and SCOOP sends mapping "
            "messages, builds models and runs Dijkstra",
            _pays_for_its_index,
            "scoop/",
        )
    )


@register_scenario("fig3_middle", alias="E2", check=_check_fig3_middle)
def _scn_fig3_middle(seed: int) -> LabelledSpecs:
    """Figure 3 (middle): SCOOP vs LOCAL vs HASH vs BASE on REAL."""
    return _policy_labels(fig3_middle(seed))


def _check_fig3_right(doc: Dict[str, object]) -> List[str]:
    total = _means(doc, TOTAL)
    unique, equal, gaussian, random = (
        total[f"scoop/{source}"] for source in ("unique", "equal", "gaussian", "random")
    )
    mapping = _means(doc, lambda r: _sent(r, "mapping"))
    equal_maps, random_maps = mapping["scoop/equal"], mapping["scoop/random"]
    return (
        _failed(
            _claim(random > unique, "RANDOM costs more than UNIQUE", random, unique),
            _claim(random > equal, "RANDOM costs more than EQUAL", random, equal),
            _claim(
                random > gaussian, "RANDOM costs more than GAUSSIAN", random, gaussian
            ),
            _claim(
                unique <= min(gaussian, random),
                "UNIQUE costs no more than GAUSSIAN or RANDOM",
                unique,
                min(gaussian, random),
            ),
            _claim(
                equal_maps <= random_maps,
                "EQUAL sends no more mapping messages than RANDOM",
                equal_maps,
                random_maps,
            ),
        )
        + _every_trial(
            doc, "routing beacons were sent", lambda r: _sent(r, "beacon") > 0
        )
        + _every_trial(
            doc,
            "the mapping category is the census's mapping sends",
            lambda r: r["breakdown"]["mapping"] == _sent(r, "mapping"),
        )
    )


@register_scenario("fig3_right", alias="E3", check=_check_fig3_right)
def _scn_fig3_right(seed: int) -> LabelledSpecs:
    """Figure 3 (right): SCOOP across the five data sources."""
    return _policy_labels(fig3_right(seed))


def _check_fig4(doc: Dict[str, object]) -> List[str]:
    grid = sweep(_means(doc, TOTAL))
    scoop, local, base = (_series(grid, p) for p in ("scoop", "local", "base"))
    return _failed(
        _claim(
            scoop[0] < local[0],
            "querying the fewest nodes, SCOOP costs less than LOCAL",
            scoop[0],
            local[0],
        ),
        _claim(
            scoop[0] < base[0],
            "querying the fewest nodes, SCOOP costs less than BASE",
            scoop[0],
            base[0],
        ),
        _claim(
            max(local) < 2.0 * min(local),
            "LOCAL's cost is roughly flat: its max is under 2x its min",
            max(local),
            min(local),
        ),
        _claim(
            scoop[-1] > scoop[0],
            "SCOOP's cost grows with the fraction of nodes queried",
            scoop[-1],
            scoop[0],
        ),
    )


@register_scenario("fig4_selectivity", alias="E4", check=_check_fig4)
def _scn_fig4(seed: int) -> LabelledSpecs:
    """Figure 4: cost vs percentage of nodes queried (node-list queries)."""
    return [
        (f"frac={frac:g}/{s.policy}", s)
        for frac, specs in fig4_selectivity(seed)
        for s in specs
    ]


def _check_fig5(doc: Dict[str, object]) -> List[str]:
    grid = sweep(_means(doc, TOTAL))
    scoop, local, base = (
        _series(grid, f"{p}/real") for p in ("scoop", "local", "base")
    )
    return _failed(
        _claim(
            local[0] > 2.0 * local[-1],
            "LOCAL's cost falls by over half as queries grow rarer",
            local[0],
            local[-1],
        ),
        _claim(
            max(base) < 1.3 * min(base),
            "BASE's cost barely moves with the query rate: max under 1.3x min",
            max(base),
            min(base),
        ),
        _claim(
            scoop[0] < local[0],
            "at the fastest query rate SCOOP costs less than LOCAL",
            scoop[0],
            local[0],
        ),
    )


@register_scenario("fig5_query_interval", alias="E5", check=_check_fig5)
def _scn_fig5(seed: int) -> LabelledSpecs:
    """Figure 5: cost vs query interval."""
    return _series_labels("qi", fig5_query_interval(seed))


def _check_loss_rates(doc: Dict[str, object]) -> List[str]:
    # Wide bounds: the paper's testbed regime (~93% stored, ~85% at the
    # owner, ~78% retrieved), not its third digit.
    stored = _means(doc, _stored)["scoop/real"]
    owner = _means(doc, result_reader("owner_hit_rate"))["scoop/real"]
    replies = _means(doc, result_reader("query_reply_rate"))["scoop/real"]
    return (
        _failed(
            _claim(stored > 0.85, "over 85% of readings are stored", stored),
            _claim(owner > 0.60, "over 60% are stored at their owner", owner),
            _claim(replies > 0.50, "over 50% of query results return", replies),
        )
        + _every_trial(
            doc,
            "stored readings spent flash-write energy",
            lambda r: r["metrics"]["energy_j"]["flash_write"] > 0,
        )
        + _every_trial(doc, "replies were sent", lambda r: _sent(r, "reply") > 0)
    )


@register_scenario("loss_rates", alias="E6", check=_check_loss_rates)
def _scn_loss_rates(seed: int) -> LabelledSpecs:
    """Section 6 text: storage success / owner hit / query retrieval rates."""
    spec = loss_rates(seed)
    return [(f"{spec.policy}/{spec.workload}", spec)]


def _check_root_skew(doc: Dict[str, object]) -> List[str]:
    received = _means(doc, result_reader("root_received"))
    root_rx = _means(doc, metric_reader("root_energy_j", "radio_rx"))
    node_j = _means(doc, result_reader("mean_node_energy_j"))
    scoop, base, local = "scoop/real", "base/real", "local/real"
    return (
        _failed(
            _claim(
                received[base] > received[scoop],
                "BASE's root receives more messages than SCOOP's",
                received[base],
                received[scoop],
            ),
            _claim(
                root_rx[base] > root_rx[scoop],
                "BASE's root spends more reception energy than SCOOP's",
                root_rx[base],
                root_rx[scoop],
            ),
            _claim(
                node_j[scoop] < node_j[local],
                "the mean SCOOP node spends less energy than the mean LOCAL node",
                node_j[scoop],
                node_j[local],
            ),
            _claim(
                node_j[scoop] < node_j[base],
                "the mean SCOOP node spends less energy than the mean BASE node",
                node_j[scoop],
                node_j[base],
            ),
        )
        + _every_trial(
            doc,
            "the root's node_load is its sent plus received messages",
            lambda r: r["metrics"]["node_load"]["0"]
            == r["root_sent"] + r["root_received"],
        )
        + _every_trial(
            doc, "load skew is at least 1", lambda r: r["metrics"]["load_skew"] >= 1.0
        )
    )


@register_scenario("root_skew", alias="E7", check=_check_root_skew)
def _scn_root_skew(seed: int) -> LabelledSpecs:
    """Section 6 text: root-node load skew and battery lifetimes."""
    return _policy_labels(root_skew(seed))


def _check_scaling(doc: Dict[str, object]) -> List[str]:
    grid = sweep(_means(doc, TOTAL))
    real, random = _series(grid, "scoop/real"), _series(grid, "scoop/random")
    stored = _series(sweep(_means(doc, _stored)), "scoop/real")[-1]
    return _failed(
        _claim(
            real[-1] > real[0],
            "REAL's cost grows with network size",
            real[-1],
            real[0],
        ),
        _claim(
            random[-1] - random[0] > 0.5 * (real[-1] - real[0]),
            "RANDOM's cost grows by over half of REAL's growth",
            random[-1] - random[0],
            real[-1] - real[0],
        ),
        _claim(stored > 0.75, "REAL stores over 75% at the largest size", stored),
    )


@register_scenario("scaling", alias="E8", check=_check_scaling)
def _scn_scaling(seed: int) -> LabelledSpecs:
    """Section 6 text: scaling to 100 nodes; RANDOM more size-sensitive."""
    return _series_labels("n", scaling(seed))


def _check_sample_interval(doc: Dict[str, object]) -> List[str]:
    grid = sweep(_means(doc, TOTAL))
    spread = [max(cell.values()) - min(cell.values()) for cell in grid.values()]
    random = _series(grid, "scoop/random")
    return _failed(
        _claim(
            spread[-1] < spread[0],
            "the best-to-worst data source gap shrinks as sampling slows",
            spread[-1],
            spread[0],
        ),
        _claim(
            random[-1] < random[0],
            "RANDOM costs less at the slowest sampling",
            random[-1],
            random[0],
        ),
    )


@register_scenario("sample_interval", alias="E9", check=_check_sample_interval)
def _scn_sample_interval(seed: int) -> LabelledSpecs:
    """Section 6 text: per-source differences wash out at low data rates."""
    return _series_labels("si", sample_interval_sweep(seed))


def _every_label_stores(doc: Dict[str, object], floor: float) -> List[str]:
    return _failed(
        *(
            _claim(stored > floor, f"{label} stores over {floor:.0%}", stored)
            for label, stored in _means(doc, _stored).items()
        )
    )


def _check_ablation_extensions(doc: Dict[str, object]) -> List[str]:
    mapping = _means(doc, result_reader("breakdown", "mapping"))
    ranged, single = mapping["range-width-10"], mapping["single-owner"]
    return _every_label_stores(doc, 0.8) + _failed(
        _claim(
            ranged <= 1.25 * single,
            "range placement sends at most 1.25x single-owner mapping messages",
            ranged,
            single,
        )
    )


@register_scenario("ablation_extensions", alias="A1", check=_check_ablation_extensions)
def _scn_ablation_extensions(seed: int) -> LabelledSpecs:
    """Ablation: Section 4 extensions — owner sets, range placement."""
    return list(ablation_extensions(seed).items())


def _check_ablation_statistics(doc: Dict[str, object]) -> List[str]:
    return _every_label_stores(doc, 0.8)


@register_scenario("ablation_statistics", alias="A2", check=_check_ablation_statistics)
def _scn_ablation_statistics(seed: int) -> LabelledSpecs:
    """Ablation: remap-interval sweep — freshness vs mapping overhead."""
    return [
        (f"remap={interval:g}s", spec)
        for interval, spec in ablation_statistics(seed)
    ]


def _check_topology_profiles(doc: Dict[str, object]) -> List[str]:
    total = sweep(_means(doc, TOTAL))
    stored = sweep(_means(doc, _stored))
    claims = [
        _claim(cell["scoop"] > 0.85, f"SCOOP stores over 85% on {kind}", cell["scoop"])
        for kind, cell in stored.items()
    ]
    # Only where floods fan out: a chain flood is nearly free, so the
    # margin on the 1-D line is noise.
    for kind in ("grid", "geometric", "testbed"):
        scoop, local = total[kind]["scoop"], total[kind]["local"]
        claims.append(
            _claim(
                scoop < local, f"SCOOP costs less than LOCAL on {kind}", scoop, local
            )
        )
    return (
        _every_trial(doc, "the trial sent messages", lambda r: r["total_messages"] > 0)
        + _every_trial(
            doc,
            "LOCAL sends no data, summary or mapping messages",
            lambda r: r["breakdown"]["data"] == 0
            and r["breakdown"]["summary"] == 0
            and r["breakdown"]["mapping"] == 0,
            "/local",
        )
        + _failed(*claims)
    )


@register_scenario("topology_profiles", alias="E11", check=_check_topology_profiles)
def _scn_topology_profiles(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL across line/grid/geometric/testbed topologies."""
    return [
        (f"topo={kind}/{s.policy}", s)
        for kind, specs in topology_profiles(seed)
        for s in specs
    ]


def _check_loss_sweep(doc: Dict[str, object]) -> List[str]:
    total = sweep(_means(doc, TOTAL))
    stored = sweep(_means(doc, _stored))
    scoop = _series(total, "scoop")
    claims = [
        _claim(scoop[-1] > scoop[0], "worse links cost SCOOP more", scoop[-1], scoop[0])
    ]
    for loss, cell in total.items():
        claims += [
            _claim(
                stored[loss]["scoop"] > 0.85,
                f"SCOOP stores over 85% at {loss} extra loss",
                stored[loss]["scoop"],
            ),
            _claim(
                cell["scoop"] < cell["local"],
                f"SCOOP costs less than LOCAL at {loss} extra loss",
                cell["scoop"],
                cell["local"],
            ),
        ]
    return _failed(*claims)


@register_scenario("loss_sweep", alias="E12", check=_check_loss_sweep)
def _scn_loss_sweep(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL under 0..50% extra per-link loss on the testbed."""
    return [
        (f"loss={extra:g}/{s.policy}", s)
        for extra, specs in loss_sweep(seed)
        for s in specs
    ]


def _runs_at_xl_capacity(result: Dict[str, object]) -> bool:
    scoop = ExperimentSpec.from_dict(result["spec"]).scoop
    return (
        scoop.max_network_size == XL_NETWORK_CAPACITY and scoop.query_bitmap_bytes == 32
    )


def _check_scaling_xl(doc: Dict[str, object]) -> List[str]:
    total = sweep(_means(doc, TOTAL))
    stored = _series(sweep(_means(doc, _stored)), "scoop")[-1]
    # One 256-node trial stored over 0.8 at bench scale; the mean over
    # paper-scale seeds is held to 0.75.
    floor = 0.75 if _paper_scale(doc) else 0.8
    claims = [
        _claim(stored > floor, f"SCOOP stores over {floor:.0%} at the top size", stored)
    ]
    for policy in ("scoop", "local"):
        costs = _series(total, policy)
        claims.append(
            _claim(
                all(a < b for a, b in zip(costs, costs[1:])),
                f"{policy.upper()}'s cost grows at every size step",
                *costs,
            )
        )
    for n, cell in total.items():
        claims.append(
            _claim(
                cell["scoop"] < cell["local"],
                f"SCOOP costs less than LOCAL at {n} nodes",
                cell["scoop"],
                cell["local"],
            )
        )
    return _every_trial(
        doc,
        f"the trial runs at the {XL_NETWORK_CAPACITY}-node capacity "
        "(32-byte query bitmap)",
        _runs_at_xl_capacity,
    ) + _failed(*claims)


@register_scenario("scaling_xl", alias="E13", check=_check_scaling_xl)
def _scn_scaling_xl(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL at 64..256 nodes with the widened 32-byte bitmap."""
    return [(f"n={n}/{s.policy}", s) for n, specs in scaling_xl(seed) for s in specs]


#: E14: seed-to-seed slack on adjacent churn rates' retrieval
#: completeness (they kill different node sets at different times).
CHURN_MONOTONE_SLACK = 0.03


def _check_node_churn(doc: Dict[str, object]) -> List[str]:
    completeness = sweep(_means(doc, metric_reader("survival", "completeness")))
    stored = sweep(_means(doc, _stored))
    reassigned = sweep(
        _means(doc, lambda r: r["metrics"]["planner"].get("owners_reassigned", 0))
    )
    claims = []
    for policy in ("scoop", "local"):
        series = _series(completeness, policy)
        claims += [
            _claim(
                all(b <= a + CHURN_MONOTONE_SLACK for a, b in zip(series, series[1:])),
                f"{policy.upper()}'s completeness falls as churn rises",
                *series,
            ),
            _claim(
                series[-1] < series[0] - 0.05,
                f"{policy.upper()}'s completeness drops by over 0.05 over the sweep",
                series[-1],
                series[0],
            ),
        ]
    for rate, cell in stored.items():
        claims.append(
            _claim(
                cell["scoop"] > 0.8,
                f"SCOOP stores over 80% at churn {rate}",
                cell["scoop"],
            )
        )
        if float(rate) > 0:
            claims.append(
                _claim(
                    reassigned[rate]["scoop"] > 0,
                    f"SCOOP reassigns dead owners' ranges at churn {rate}",
                    reassigned[rate]["scoop"],
                )
            )
    return (
        _every_trial(
            doc,
            "the trial carries a survival breakdown",
            lambda r: bool(r["metrics"]["survival"]),
        )
        + _every_trial(
            doc,
            "nodes fail exactly when the churn rate is above 0",
            lambda r: (r["metrics"]["survival"].get("nodes_failed", 0) > 0)
            == (r["spec"]["churn_rate"] > 0),
        )
        + _failed(*claims)
    )


@register_scenario("node_churn", alias="E14", check=_check_node_churn)
def _scn_node_churn(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL under 0..45% node failures; staleness-evicting remaps."""
    return [
        (f"churn={rate:g}/{s.policy}", s)
        for rate, specs in node_churn(seed)
        for s in specs
    ]


#: E15: SCOOP's mean total, and its summary + mapping maintenance, at k
#: attributes stays below this fraction of k times its k = 1 mean.
SUBLINEAR_MARGIN = 0.9
#: E15: LOCAL's largest-k mean is at least this multiple of its k = 1
#: mean (congestion slack keeps it below a strict k-fold growth).
LOCAL_GROWTH_FLOOR = 2.0


def _attributes_complete(result: Dict[str, object]) -> bool:
    """Counters for each of the trial's k attributes, each of which
    produced readings, and no reading fabricated."""
    metrics = result["metrics"]
    k = len(result["spec"]["scoop"]["attributes"])
    return (
        set(metrics["attributes"]) == {f"a{a}" for a in range(k)}
        and all(row["readings_produced"] > 0 for row in metrics["attributes"].values())
        and metrics["oracle"]["precision_violations"] == 0
    )


def _indexes_every_attribute(result: Dict[str, object]) -> bool:
    planner = result["metrics"]["planner"]
    k = len(result["spec"]["scoop"]["attributes"])
    return all(planner.get(f"a{a}.index_builds", 0) > 0 for a in range(k))


def _check_multi_attribute(doc: Dict[str, object]) -> List[str]:
    total = sweep(_means(doc, TOTAL))
    upkeep = sweep(
        _means(doc, lambda r: r["breakdown"]["summary"] + r["breakdown"]["mapping"])
    )
    recall = sweep(_means(doc, metric_reader("oracle", "recall_weighted")))
    # Tuple-weighted oracle recall: 0.5 at bench scale, and 0.6 at paper
    # scale, the paper's ~78% retrieval regime.
    floor = 0.6 if _paper_scale(doc) else 0.5
    claims = []
    for k, cell in total.items():
        claims += [
            _claim(
                cell["scoop"] < cell["local"],
                f"SCOOP costs less than LOCAL at k={k}",
                cell["scoop"],
                cell["local"],
            ),
            _claim(
                recall[k]["scoop"] >= floor,
                f"SCOOP's oracle recall is at least {floor} at k={k}",
                recall[k]["scoop"],
            ),
        ]
        if int(k) > 1:
            bound = SUBLINEAR_MARGIN * int(k)
            claims += [
                _claim(
                    cell["scoop"] < bound * total["1"]["scoop"],
                    f"SCOOP's cost at k={k} is under {bound:g}x its k=1 cost",
                    cell["scoop"],
                    total["1"]["scoop"],
                ),
                _claim(
                    upkeep[k]["scoop"] < bound * upkeep["1"]["scoop"],
                    f"SCOOP's summary + mapping cost at k={k} is under {bound:g}x "
                    "its k=1 cost",
                    upkeep[k]["scoop"],
                    upkeep["1"]["scoop"],
                ),
            ]
    local = _series(total, "local")
    claims.append(
        _claim(
            local[-1] >= LOCAL_GROWTH_FLOOR * local[0],
            f"LOCAL's largest-k cost is at least {LOCAL_GROWTH_FLOOR:g}x its k=1 cost",
            local[-1],
            local[0],
        )
    )
    return (
        _every_trial(
            doc,
            "every attribute has counters and readings, and none is fabricated",
            _attributes_complete,
        )
        + _every_trial(
            doc,
            "SCOOP builds an index for every attribute",
            _indexes_every_attribute,
            "/scoop",
        )
        + _failed(*claims)
    )


@register_scenario("multi_attribute", alias="E15", check=_check_multi_attribute)
def _scn_multi_attribute(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL vs HASH at 1/2/4 concurrent attributes (E15)."""
    return [
        (f"k={k}/{s.policy}", s)
        for k, specs in multi_attribute_grid(seed)
        for s in specs
    ]


#: E16: slack on adjacent offered loads' tail latencies, in simulated
#: seconds (different loads coalesce different request mixes), and on
#: their shed rates. The median is not gated: at high load cache hits
#: serve most requests at ~zero latency, so p50 improves while the
#: tails collapse.
LATENCY_SLACK_S = 2.0
SHED_SLACK = 0.02


def _check_query_service(doc: Dict[str, object]) -> List[str]:
    service = {
        metric: sweep(_means(doc, metric_reader("service", metric)))
        for metric in ("latency_p95_s", "latency_p99_s", "shed_rate")
    }
    claims = []
    for policy in ("scoop", "local"):
        for metric in ("latency_p95_s", "latency_p99_s"):
            tail = _series(service[metric], policy)
            claims += [
                _claim(
                    all(b >= a - LATENCY_SLACK_S for a, b in zip(tail, tail[1:])),
                    f"{policy.upper()}'s {metric} only rises with load",
                    *tail,
                ),
                _claim(
                    tail[-1] > tail[0],
                    f"{policy.upper()}'s {metric} is worse at the top of the sweep",
                    tail[-1],
                    tail[0],
                ),
            ]
        shed = _series(service["shed_rate"], policy)
        claims.append(
            _claim(
                all(b >= a - SHED_SLACK for a, b in zip(shed, shed[1:])),
                f"{policy.upper()}'s shed rate only rises with load",
                *shed,
            )
        )
    top = list(service["shed_rate"].values())[-1]
    hits = _means(doc, metric_reader("service", "cache_hit_rate"))
    claims += [
        _claim(max(top.values()) > 0, "the top of the sweep sheds", *top.values()),
        _claim(max(hits.values()) > 0, "the answer cache hits", max(hits.values())),
    ]
    return (
        _every_trial(
            doc,
            "the trial carries a serving scorecard with offered requests",
            lambda r: r["metrics"]["service"].get("requests_offered", 0) > 0,
        )
        + _every_trial(
            doc,
            "served answers fabricate no reading",
            lambda r: r["metrics"]["oracle"]["precision_violations"] == 0,
        )
        + _failed(*claims)
    )


@register_scenario("query_service", alias="E16", check=_check_query_service)
def _scn_query_service(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL behind the query gateway at rising offered load."""
    return [
        (f"qps={qps:g}/{s.policy}", s)
        for qps, specs in query_service(seed)
        for s in specs
    ]


@register_scenario("smoke")
def _scn_smoke(seed: int) -> LabelledSpecs:
    """14-node micro-grid with short timers for CI and engine tests."""
    return _policy_labels(smoke(seed))


def scenario_names() -> Tuple[str, ...]:
    return tuple(SCENARIOS)


def canonical_scenario_name(name: str) -> str:
    """Resolve an E/A alias to its scenario name (identity otherwise)."""
    return SCENARIO_ALIASES.get(name, name)


def unknown_scenario_error(name: str) -> ValueError:
    """The uniform unknown-scenario error every entry point raises:
    close-match suggestions over names *and* E/A aliases, plus the
    registry pointer."""
    candidates = list(SCENARIOS) + list(SCENARIO_ALIASES)
    close = difflib.get_close_matches(name, candidates, n=3, cutoff=0.5)
    hint = f" (did you mean {', '.join(repr(c) for c in close)}?)" if close else ""
    return ValueError(
        f"unknown scenario {name!r}{hint}; "
        "`python -m repro.experiments list` shows the registry"
    )


def scenario_trials(name: str, seed: int = 1) -> LabelledSpecs:
    """Expand scenario ``name`` (or an E/A alias) into labelled specs."""
    canonical = canonical_scenario_name(name)
    if canonical not in SCENARIOS:
        raise unknown_scenario_error(name)
    return SCENARIOS[canonical].build(seed)
