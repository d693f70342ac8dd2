"""Policy registry: storage-policy name → mote factory.

The experiment runner used to hard-code an if/elif chain over the four
paper policies; every new baseline or variant meant editing the runner.
Policies are now plug-ins: a factory registered under a name builds the
basestation and sensor motes for one trial, and :class:`ExperimentSpec`
validates its ``policy`` field against this registry, so external code
(tests, extensions, ablations) can add policies without touching the
runner:

    @register_policy("scoop-tuned")
    def _build(spec, net, workload):
        ...
        return base, nodes

A factory receives the full :class:`ExperimentSpec`, the assembled
:class:`~repro.sim.network.Network` (for ``sim``/``radio``/``tracker``/
``energy``) and the instantiated :class:`~repro.workloads.Workload`, and
returns ``(basestation, sensor_nodes)``. It must *not* call
``net.add_mote`` — the runner does that so every policy is wired
identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.baselines.hash_static import (
    HashBasestation,
    HashNode,
    build_hash_indexes,
)
from repro.baselines.local import LocalBasestation, LocalNode
from repro.baselines.send_base import SendToBaseBasestation, SendToBaseNode
from repro.core.basestation import Basestation
from repro.core.node import ScoopNode

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runner cycle
    from repro.experiments.runner import ExperimentSpec
    from repro.sim.mote import Mote  # noqa: F401 — quoted in PolicyFactory
    from repro.sim.network import Network
    from repro.workloads import Workload  # noqa: F401 — quoted in PolicyFactory

#: factory(spec, net, workload) -> (basestation, sensor nodes)
PolicyFactory = Callable[
    ["ExperimentSpec", "Network", "Workload"], Tuple["Mote", List["Mote"]]
]

_POLICIES: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: Optional[PolicyFactory] = None) -> Callable:
    """Register ``factory`` under ``name`` (also usable as a decorator)."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"policy name must be a non-empty string, got {name!r}")

    def _register(fn: PolicyFactory) -> PolicyFactory:
        if name in _POLICIES:
            raise ValueError(f"policy {name!r} is already registered")
        _POLICIES[name] = fn
        return fn

    if factory is None:
        return _register
    return _register(factory)


def unregister_policy(name: str) -> None:
    """Remove a registered policy (primarily for tests and plug-ins)."""
    if name not in _POLICIES:
        raise KeyError(f"policy {name!r} is not registered")
    del _POLICIES[name]


def is_registered(name: str) -> bool:
    return name in _POLICIES


def known_policies() -> Tuple[str, ...]:
    """All registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


def policy_factory(name: str) -> PolicyFactory:
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; registered policies: {known_policies()}"
        ) from None


# ----------------------------------------------------------------------
# The paper's four storage policies (Section 6 table).
# ----------------------------------------------------------------------

def _common(spec: "ExperimentSpec", net: "Network") -> Dict[str, object]:
    return dict(config=spec.scoop, tracker=net.tracker, energy=net.energy)


@register_policy("scoop")
def _build_scoop(spec, net, workload):
    common = _common(spec, net)
    base = Basestation(net.sim, net.radio, **common)
    nodes = [
        ScoopNode(i, net.sim, net.radio, source=workload.sample_attr, **common)
        for i in spec.scoop.sensor_ids
    ]
    return base, nodes


@register_policy("local")
def _build_local(spec, net, workload):
    common = _common(spec, net)
    base = LocalBasestation(net.sim, net.radio, **common)
    nodes = [
        LocalNode(i, net.sim, net.radio, source=workload.sample_attr, **common)
        for i in spec.scoop.sensor_ids
    ]
    return base, nodes


@register_policy("base")
def _build_send_to_base(spec, net, workload):
    common = _common(spec, net)
    base = SendToBaseBasestation(net.sim, net.radio, **common)
    nodes = [
        SendToBaseNode(i, net.sim, net.radio, source=workload.sample_attr, **common)
        for i in spec.scoop.sensor_ids
    ]
    return base, nodes


@register_policy("hash")
def _build_hash(spec, net, workload):
    common = _common(spec, net)
    indexes = build_hash_indexes(spec.scoop, salt=spec.seed)
    base = HashBasestation(net.sim, net.radio, hash_indexes=indexes, **common)
    nodes = [
        HashNode(
            i,
            net.sim,
            net.radio,
            hash_indexes=indexes,
            source=workload.sample_attr,
            **common,
        )
        for i in spec.scoop.sensor_ids
    ]
    return base, nodes


#: Snapshot of the built-ins, taken once all four are registered above;
#: everything beyond this set is a plug-in (see :func:`plugin_policies`).
_DEFAULT_POLICIES = frozenset(_POLICIES)


def plugin_policies() -> Dict[str, PolicyFactory]:
    """Registered policies beyond the paper's built-in four.

    Parallel campaigns ship these to worker processes (whose registries
    start with only the built-ins under spawn-based multiprocessing), so
    plug-in factories must be module-level callables to run with
    ``jobs > 1`` on spawn platforms.
    """
    return {
        name: factory
        for name, factory in _POLICIES.items()
        if name not in _DEFAULT_POLICIES
    }
