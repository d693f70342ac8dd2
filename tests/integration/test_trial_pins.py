"""Golden trial pins: small specs that together reach every layer.

Each simulated trial is pinned by three integers: its total message
count, the kernel's event count, and a SHA-256 over the ``int``-typed
leaves of ``deterministic_dict()``. Floats are left out on purpose: from
Python 3.12 on, builtin ``sum()`` of floats rounds differently, while
every integer a trial reports is the same on every interpreter. The
analytical HASH evaluation runs no simulator; its cost breakdown is
built by in-order ``+=`` and is pinned as exact floats.

There is no update switch. A change that moves a trial edits the
literals below and names each moved pin in CHANGES.md.
"""

import dataclasses
import hashlib
from typing import Callable, Dict, Iterator, Tuple

import pytest

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
    run_hash_analytical,
    scale_spec,
)
from repro.experiments.scenarios import query_service, scaling_xl
from repro.workloads.queries import QueryPlanConfig

SMOKE_DOMAIN = ValueDomain(0, 20)
TWO_ATTRIBUTES = (
    AttributeSpec("temperature", SMOKE_DOMAIN),
    AttributeSpec("light", ValueDomain(0, 30)),
)
SMOKE_TIMERS = dict(
    sample_interval=5.0,
    query_interval=10.0,
    summary_interval=20.0,
    remap_interval=40.0,
    stabilization=60.0,
    duration=120.0,
    beacon_interval=5.0,
    query_reply_window=8.0,
)


def smoke_spec(
    policy: str, n_nodes: int = 14, attributes: tuple = (), **spec_kw
) -> ExperimentSpec:
    """The smoke scenario's trial, with one query stream per attribute."""
    return ExperimentSpec(
        policy=policy,
        workload="gaussian",
        scoop=ScoopConfig(
            n_nodes=n_nodes, domain=SMOKE_DOMAIN, attributes=attributes, **SMOKE_TIMERS
        ),
        query_plan=QueryPlanConfig(n_attributes=max(1, len(attributes))),
        seed=1,
        **spec_kw,
    )


def two_attribute_spec(policy: str, **spec_kw) -> ExperimentSpec:
    return smoke_spec(policy, attributes=TWO_ATTRIBUTES, **spec_kw)


def churn_spec(policy: str) -> ExperimentSpec:
    """A third of the sensors die mid-run; half of them cold-reboot."""
    spec = smoke_spec(policy, churn_rate=0.3, churn_revive_frac=0.5)
    return dataclasses.replace(
        spec, scoop=dataclasses.replace(spec.scoop, node_staleness_intervals=2.0)
    )


def e16_spec(policy: str) -> ExperimentSpec:
    """E16's 24-node serving trial at 0.6 req/s, time scale 0.15."""
    pair = query_service(seed=1, loads=(0.6,))[0][1]
    spec = {s.policy: s for s in pair}[policy]
    return dataclasses.replace(
        spec,
        scoop=dataclasses.replace(spec.scoop, stabilization=240.0, duration=360.0),
    )


def e13_smoke_spec() -> ExperimentSpec:
    """The scaling grid's 64-node SCOOP trial at time scale 0.15."""
    scoop = scaling_xl(seed=1, sizes=(64,))[0][1][0]
    unscaled = dataclasses.replace(
        scoop,
        scoop=dataclasses.replace(scoop.scoop, duration=2400.0, stabilization=600.0),
    )
    return scale_spec(unscaled, 0.15)


PIN_SPECS: Dict[str, Callable[[], ExperimentSpec]] = {
    "scoop": lambda: smoke_spec("scoop"),
    "local": lambda: smoke_spec("local"),
    "base": lambda: smoke_spec("base"),
    "hash": lambda: smoke_spec("hash", hash_simulated=True),
    "scoop-k2": lambda: two_attribute_spec("scoop"),
    "local-k2": lambda: two_attribute_spec("local"),
    "base-k2": lambda: two_attribute_spec("base"),
    "hash-k2": lambda: two_attribute_spec("hash", hash_simulated=True),
    "scoop-k1-registry": lambda: smoke_spec(
        "scoop", attributes=(AttributeSpec("value", SMOKE_DOMAIN),)
    ),
    "scoop-churn": lambda: churn_spec("scoop"),
    "local-churn": lambda: churn_spec("local"),
    "base-churn": lambda: churn_spec("base"),
    "scoop-e16": lambda: e16_spec("scoop"),
    "local-e16": lambda: e16_spec("local"),
    "scoop-lossy-grid": lambda: smoke_spec(
        "scoop", n_nodes=25, topology_kind="grid", link_loss=0.3
    ),
    "scoop-e13-64": e13_smoke_spec,
}

ANALYTICAL_SPECS: Dict[str, Callable[[], ExperimentSpec]] = {
    "hash-analytical": lambda: smoke_spec("hash"),
    "hash-analytical-k2": lambda: two_attribute_spec("hash"),
}

# fmt: off
#: name -> (total_messages, events_processed, int-leaf digest)
TRIAL_PINS: Dict[str, Tuple[int, int, str]] = {
    "scoop": (2290, 10010, "423f37637d836215744394239d7630c2082845592a9abe7e66d0cc5a7ab39107"),
    "local": (1254, 6172, "eff69739417896500034da0b1827b34fbf478a5ed2434a7fb3ebec4b6ad662af"),
    "base": (3919, 14114, "cea1b2da6f388ebea4993afe9436cb3ecd80470f409675b696a95d57a862393b"),
    "hash": (2457, 9629, "8e42e7a411088a2c1acc5c772fa3ac67ebd454495ded6c134086d8ea4369b4d9"),
    "scoop-k2": (2385, 10138, "fc170cfa5a607dd0e7fda0d95d77443e2a8fb958cc518884de66b1c462bca991"),
    "local-k2": (1121, 5770, "af2b008d4a32e6eae18508a33a5f669fd90305e0984b41a05d1ff317dbc8c88a"),
    "base-k2": (6126, 20952, "ff23b0a03fb2be8bca7d38849a53457f5614008eabc9e61a8e0e6d89a9b54f3d"),
    "hash-k2": (4675, 16752, "0338df16405b7971df2a623c12572e19d0d9bcfa8030a85567170c85a1a9cccd"),
    "scoop-k1-registry": (2290, 10010, "dcd381ba59ff91fd26b6d2406b07e8d297b6fffc59707b21818b8bb849fc4fce"),
    "scoop-churn": (1599, 7410, "856838948390b8a7a9e495570806279aa3484ab784b9befef543869da5121e0b"),
    "local-churn": (929, 4917, "49675183fd77b94b9bd4e20748de659b7556583c294e9eff3058982ac734e7e5"),
    "base-churn": (2661, 9823, "7ac96f8bcddce6184b922b1d1693b3a9b24748bb383facc8c628b44c3f586c45"),
    "scoop-e16": (15697, 58441, "a8a08c70f8dd9cbbf949d84897a1983ad93da3c95c0a7332118ecb8a4ebb39db"),
    "local-e16": (17769, 66163, "346b6a1ae70d2cefb18bea967d32cc322d8b4a98e7e133d83fe1c782669c9ad7"),
    "scoop-lossy-grid": (4538, 20067, "4c2e98b85ea45816e0c51f9bdbd785c80f7261b34538de169bce6ef31f170fbd"),
    "scoop-e13-64": (8440, 45496, "f17fe35a312184d751b92833501df019ce13c32a97dd7216c54dee81e6b80b46"),
}

#: name -> (total_messages, breakdown["data"], breakdown["query/reply"])
ANALYTICAL_PINS: Dict[str, Tuple[float, float, float]] = {
    "hash-analytical": (12495.55186137894, 10892.087490541267, 1603.4643708376739),
    "hash-analytical-k2": (22848.961613522923, 22310.760992832184, 538.2006206907399),
}
# fmt: on


def _int_leaves(node: object, path: Tuple[object, ...] = ()) -> Iterator[tuple]:
    if isinstance(node, dict):
        for key in sorted(node, key=str):
            yield from _int_leaves(node[key], path + (str(key),))
    elif isinstance(node, (list, tuple)):
        for position, item in enumerate(node):
            yield from _int_leaves(item, path + (position,))
    elif isinstance(node, int):
        yield path, int(node)


def int_leaf_digest(result: ExperimentResult) -> str:
    leaves = list(_int_leaves(result.deterministic_dict()))
    return hashlib.sha256(repr(leaves).encode()).hexdigest()


def trial_pin(result: ExperimentResult) -> Tuple[int, int, str]:
    return (
        int(result.total_messages),
        int(result.metrics.timing["events_processed"]),
        int_leaf_digest(result),
    )


def analytical_pin(result: ExperimentResult) -> Tuple[float, float, float]:
    return (
        result.total_messages,
        result.breakdown["data"],
        result.breakdown["query/reply"],
    )


def test_every_spec_is_pinned():
    assert set(TRIAL_PINS) == set(PIN_SPECS)
    assert set(ANALYTICAL_PINS) == set(ANALYTICAL_SPECS)


@pytest.mark.parametrize("name", sorted(PIN_SPECS))
def test_trial_is_pinned(name):
    assert trial_pin(run_experiment(PIN_SPECS[name]())) == TRIAL_PINS[name]


@pytest.mark.parametrize("name", sorted(ANALYTICAL_SPECS))
def test_analytical_hash_is_pinned(name):
    result = run_hash_analytical(ANALYTICAL_SPECS[name]())
    assert analytical_pin(result) == ANALYTICAL_PINS[name]
