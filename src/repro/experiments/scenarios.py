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
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
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
# (x, specs) series, dicts) for the benchmarks; the campaign engine needs
# one uniform shape. Each registered scenario is a builder
# ``f(seed) -> [(label, spec), ...]`` where the label identifies the trial
# *within* the scenario (seeds of the same label aggregate together); its
# docstring's first line is the scenario's description in ``python -m
# repro.experiments list``.

LabelledSpecs = List[Tuple[str, ExperimentSpec]]


@dataclasses.dataclass(frozen=True)
class ScenarioDef:
    """One registry entry: how to build a scenario, and what it shows."""

    name: str
    build: Callable[[int], LabelledSpecs]
    description: str
    #: DESIGN.md experiment id ("E2", "A1", ...), usable as a CLI alias.
    alias: str = ""


SCENARIOS: Dict[str, ScenarioDef] = {}

#: Experiment ids (DESIGN.md) as aliases for the scenario names (derived
#: from the registrations below, never hand-kept).
SCENARIO_ALIASES: Dict[str, str] = {}


def register_scenario(name: str, alias: str = "") -> Callable:
    """Register a scenario builder; its docstring's first line becomes
    the registry description (the CLI ``list`` output and CI's scenario
    matrix both read the registry, so a scenario cannot exist without a
    description or land unexercised)."""

    def _register(fn: Callable[[int], LabelledSpecs]) -> Callable:
        if name in SCENARIOS or name in SCENARIO_ALIASES:
            raise ValueError(f"scenario {name!r} is already registered")
        doc = (fn.__doc__ or "").strip()
        if not doc and sys.flags.optimize < 2:
            # Under -OO docstrings are stripped wholesale; everywhere
            # else a description is mandatory.
            raise ValueError(f"scenario {name!r} needs a one-line docstring")
        description = doc.splitlines()[0].strip() if doc else name
        SCENARIOS[name] = ScenarioDef(name, fn, description, alias)
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


@register_scenario("fig3_left", alias="E1")
def _scn_fig3_left(seed: int) -> LabelledSpecs:
    """Figure 3 (left): testbed cost breakdown by message type."""
    return _policy_labels(fig3_left(seed))


@register_scenario("fig3_middle", alias="E2")
def _scn_fig3_middle(seed: int) -> LabelledSpecs:
    """Figure 3 (middle): SCOOP vs LOCAL vs HASH vs BASE on REAL."""
    return _policy_labels(fig3_middle(seed))


@register_scenario("fig3_right", alias="E3")
def _scn_fig3_right(seed: int) -> LabelledSpecs:
    """Figure 3 (right): SCOOP across the five data sources."""
    return _policy_labels(fig3_right(seed))


@register_scenario("fig4_selectivity", alias="E4")
def _scn_fig4(seed: int) -> LabelledSpecs:
    """Figure 4: cost vs percentage of nodes queried (node-list queries)."""
    return [
        (f"frac={frac:g}/{s.policy}", s)
        for frac, specs in fig4_selectivity(seed)
        for s in specs
    ]


@register_scenario("fig5_query_interval", alias="E5")
def _scn_fig5(seed: int) -> LabelledSpecs:
    """Figure 5: cost vs query interval."""
    return _series_labels("qi", fig5_query_interval(seed))


@register_scenario("loss_rates", alias="E6")
def _scn_loss_rates(seed: int) -> LabelledSpecs:
    """Section 6 text: storage success / owner hit / query retrieval rates."""
    spec = loss_rates(seed)
    return [(f"{spec.policy}/{spec.workload}", spec)]


@register_scenario("root_skew", alias="E7")
def _scn_root_skew(seed: int) -> LabelledSpecs:
    """Section 6 text: root-node load skew and battery lifetimes."""
    return _policy_labels(root_skew(seed))


@register_scenario("scaling", alias="E8")
def _scn_scaling(seed: int) -> LabelledSpecs:
    """Section 6 text: scaling to 100 nodes; RANDOM more size-sensitive."""
    return _series_labels("n", scaling(seed))


@register_scenario("sample_interval", alias="E9")
def _scn_sample_interval(seed: int) -> LabelledSpecs:
    """Section 6 text: per-source differences wash out at low data rates."""
    return _series_labels("si", sample_interval_sweep(seed))


@register_scenario("ablation_extensions", alias="A1")
def _scn_ablation_extensions(seed: int) -> LabelledSpecs:
    """Ablation: Section 4 extensions — owner sets, range placement."""
    return list(ablation_extensions(seed).items())


@register_scenario("ablation_statistics", alias="A2")
def _scn_ablation_statistics(seed: int) -> LabelledSpecs:
    """Ablation: remap-interval sweep — freshness vs mapping overhead."""
    return [
        (f"remap={interval:g}s", spec)
        for interval, spec in ablation_statistics(seed)
    ]


@register_scenario("topology_profiles", alias="E11")
def _scn_topology_profiles(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL across line/grid/geometric/testbed topologies."""
    return [
        (f"topo={kind}/{s.policy}", s)
        for kind, specs in topology_profiles(seed)
        for s in specs
    ]


@register_scenario("loss_sweep", alias="E12")
def _scn_loss_sweep(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL under 0..50% extra per-link loss on the testbed."""
    return [
        (f"loss={extra:g}/{s.policy}", s)
        for extra, specs in loss_sweep(seed)
        for s in specs
    ]


@register_scenario("scaling_xl", alias="E13")
def _scn_scaling_xl(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL at 64..256 nodes with the widened 32-byte bitmap."""
    return [(f"n={n}/{s.policy}", s) for n, specs in scaling_xl(seed) for s in specs]


@register_scenario("node_churn", alias="E14")
def _scn_node_churn(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL under 0..45% node failures; staleness-evicting remaps."""
    return [
        (f"churn={rate:g}/{s.policy}", s)
        for rate, specs in node_churn(seed)
        for s in specs
    ]


@register_scenario("multi_attribute", alias="E15")
def _scn_multi_attribute(seed: int) -> LabelledSpecs:
    """SCOOP vs LOCAL vs HASH at 1/2/4 concurrent attributes (E15)."""
    return [
        (f"k={k}/{s.policy}", s)
        for k, specs in multi_attribute_grid(seed)
        for s in specs
    ]


@register_scenario("query_service", alias="E16")
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
