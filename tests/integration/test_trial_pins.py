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
    "scoop": (2290, 10010, "6dcddeef652c3b76516fafb8c6bc57bf10cd6283c07f87573c7489b67a44e7f8"),
    "local": (1254, 6172, "1c838ad58631923bf865c52875a1c46e09e075f0a8de800a655223973305ff41"),
    "base": (3919, 14114, "43a3aaa144d0910c5a8f8b968dc65df320ccd62da033026230de1278a5147e7a"),
    "hash": (2457, 9629, "02b421bea91f974ce64147a0fced880f9846d3296001c693c79d41d13ea95d4e"),
    "scoop-k2": (2385, 10138, "852987459827c14cc9e45bf91ee322fe71446484b22a956708865b5e03adbfcd"),
    "local-k2": (1121, 5770, "6bb30f4045455544827fe71a56190541066f2a3518328704980f29c76bc3cb55"),
    "base-k2": (6126, 20952, "dc503c9e7085b2b4f963cfb14f1c6a5a0b13637fe0acb903e6539f89e6da4606"),
    "hash-k2": (4675, 16752, "50b82459fc7514c284bb1f4257a5f52bf5407edab8659aeca69043e6c90331b4"),
    "scoop-k1-registry": (2290, 10010, "3840b32267ef3555c0801e6a9addfe62e99348eb5dd2ab1254db5020c4693811"),
    "scoop-churn": (1599, 7410, "fff1c2096e24bcd4c39b9bd2172fe34b5c9cc5df12431ea14504cbf2f91e0e6b"),
    "local-churn": (929, 4917, "081a7c809fb4d1e70f193a45c85a2f32d422d6e4040026e200f6509d6be03972"),
    "base-churn": (2661, 9823, "089f46696bb69ab4b9d97a25bfa6fb440938bfafed0c323b1907409fd2cea09e"),
    "scoop-e16": (15697, 58441, "0bbda3c4b449f8ebd5ef1eb1b2cebe2047850367f57b360c3ed740b72b2d35b4"),
    "local-e16": (17769, 66163, "e263a548f2cf0e01eea4cfac005bfeee3941c2ec92e222985cea83746d8c561e"),
    "scoop-lossy-grid": (4538, 20067, "ba45a84cb8fe86f8a2830af2aa24e43d8238b7370d6da68d896d60a115434dc5"),
    "scoop-e13-64": (8440, 45496, "91a2d16e04683f8b36fa37259456f6638f370ed1fe2d96fdb95d04b881a8089c"),
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
