"""Outside-in layer tracing for the benchmark's traced runs.

Spans are wrapped around the program's layer entry points from these
files; nothing in ``src/`` changes. A span charges its wall time to one
layer, and a layer's *self time* is its spans minus the child spans
nested inside them, so the self times of all layers add up to the wall
time the outermost spans cover. Counts are taken at the same
boundaries.

The kernel is traced by wrapping ``Simulator.schedule`` and
``schedule_at``: every dispatched callback becomes a span of the layer
that owns it (a ``Timer`` is charged to its callback's owner), and
``Simulator.run`` minus those spans is the kernel's own dispatch time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    """An in-memory span stack accumulating self time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: wall time covered by outermost spans
        self.covered_s = 0.0
        #: child time accumulated by each open span, innermost last
        self._open: List[List[float]] = []

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        open_spans = self._open
        children = [0.0]
        open_spans.append(children)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            open_spans.pop()
            self.self_s[layer] += elapsed - children[0]
            if open_spans:
                open_spans[-1][0] += elapsed
            else:
                self.covered_s += elapsed


class Patches:
    """Attribute replacements on classes and modules, undone by
    :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def span_method(patches: Patches, tracer: Tracer, cls: Any, name: str, layer: str) -> None:
    """Make every call of ``cls.name`` a span of ``layer``."""
    original = getattr(cls, name)
    call = tracer.call

    def traced(*args: Any, **kwargs: Any) -> Any:
        return call(layer, original, *args, **kwargs)

    patches.set(cls, name, traced)


def span_classmethod(patches: Patches, tracer: Tracer, cls: Any, name: str, layer: str) -> None:
    original = getattr(cls, name)  # already bound to ``cls``
    call = tracer.call

    def traced(_cls: Any, *args: Any, **kwargs: Any) -> Any:
        return call(layer, original, *args, **kwargs)

    patches.set(cls, name, classmethod(traced))


# ----------------------------------------------------------------------
# Trial layers
# ----------------------------------------------------------------------

#: Owner module of a dispatched callback -> layer. Trickle timers are the
#: ScoopNode's storage-index dissemination and the deployment's tick is
#: the trial's basestation query stream, so both are Scoop protocol work.
CALLBACK_LAYERS = {
    "repro.sim.radio": "sim.radio",
    "repro.sim.mote": "sim.mote",
    "repro.sim.trickle": "core.node",
    "repro.core.node": "core.node",
    "repro.core.basestation": "core.node",
    "repro.service.deployment": "core.node",
}

#: Callbacks charged to the basestation planner rather than their module.
PLANNER_CALLBACKS = frozenset({"Basestation._remap"})


def callback_layer(module: str, qualname: str) -> str:
    if qualname in PLANNER_CALLBACKS:
        return "core.planner"
    layer = CALLBACK_LAYERS.get(module)
    if layer is None:
        layer = module[len("repro."):] if module.startswith("repro.") else module
    return layer


class CallbackOwners:
    """Maps a scheduled callable to the layer that owns it (memoized per
    underlying function)."""

    def __init__(self) -> None:
        from repro.sim.kernel import Timer

        self._timer = Timer
        self._cache: Dict[Any, str] = {}

    def __call__(self, fn: Any) -> str:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, self._timer):
            return self(owner._callback)
        func = getattr(fn, "__func__", fn)
        layer = self._cache.get(func)
        if layer is None:
            layer = self._cache[func] = callback_layer(
                getattr(func, "__module__", "") or "",
                getattr(func, "__qualname__", type(func).__name__),
            )
        return layer


def install_trial_layers(tracer: Tracer) -> Patches:
    """Wrap every layer boundary a trial crosses; returns the patches so
    a caller can undo them."""
    import repro.core.basestation as basestation
    import repro.service.deployment as deployment
    from repro.core.node import ScoopNode
    from repro.service.deployment import Deployment
    from repro.sim.energy import EnergyMeter
    from repro.sim.kernel import Simulator
    from repro.sim.linkest import LinkEstimator
    from repro.sim.metrics import MessageCensus
    from repro.sim.mote import Mote
    from repro.sim.radio import Radio
    from repro.sim.routing_tree import RoutingTree

    patches = Patches()
    call = tracer.call
    counts = tracer.counts
    partial = functools.partial
    owner_of = CallbackOwners()

    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at

    def traced_schedule(sim: Any, delay: float, fn: Any, *args: Any) -> Any:
        return schedule(sim, delay, partial(call, owner_of(fn), fn), *args)

    def traced_schedule_at(sim: Any, at: float, fn: Any, *args: Any) -> Any:
        return schedule_at(sim, at, partial(call, owner_of(fn), fn), *args)

    patches.set(Simulator, "schedule", traced_schedule)
    patches.set(Simulator, "schedule_at", traced_schedule_at)
    span_method(patches, tracer, Simulator, "run", "sim.kernel")

    unicast = Radio.unicast

    def traced_unicast(radio: Any, frame: Any, done: Any = None) -> None:
        if done is not None:
            done = partial(call, owner_of(done), done)
        call("sim.radio", unicast, radio, frame, done)

    patches.set(Radio, "unicast", traced_unicast)
    span_method(patches, tracer, Radio, "broadcast", "sim.radio")

    for name in ("on_receive", "on_snoop"):
        heard = getattr(Mote, name)

        def traced_heard(mote: Any, frame: Any, _heard: Any = heard) -> None:
            counts["sim.mote.frames_heard"] += 1
            call("sim.mote", _heard, mote, frame)

        patches.set(Mote, name, traced_heard)
    span_method(patches, tracer, ScoopNode, "handle_frame", "core.node")

    hear = LinkEstimator.hear

    def traced_hear(estimator: Any, neighbor: int, seqno: int, now: float) -> None:
        counts["sim.linkest.hears"] += 1
        if not estimator.knows(neighbor):
            counts["sim.linkest.inserts"] += 1
        call("sim.linkest", hear, estimator, neighbor, seqno, now)

    patches.set(LinkEstimator, "hear", traced_hear)

    on_beacon = RoutingTree.on_beacon

    def traced_on_beacon(tree: Any, sender: int, payload: Any) -> None:
        before = (tree.parent, tree.path_etx)
        call("sim.routing_tree", on_beacon, tree, sender, payload)
        counts["sim.routing_tree.beacons"] += 1
        if (tree.parent, tree.path_etx) != before:
            counts["sim.routing_tree.useful"] += 1

    patches.set(RoutingTree, "on_beacon", traced_on_beacon)
    for name in ("note_uplink", "note_origin_header"):
        span_method(patches, tracer, RoutingTree, name, "sim.routing_tree")

    for name in ("record_transmit", "record_delivery", "record_deliveries"):
        span_method(patches, tracer, MessageCensus, name, "sim.accounting")
    for name in ("radio_tx", "radio_rx", "radio_rx_batch"):
        span_method(patches, tracer, EnergyMeter, name, "sim.accounting")

    span_method(patches, tracer, basestation, "build_storage_index", "core.planner")

    collect = Deployment.collect

    def traced_collect(deployment: Any, *args: Any, **kwargs: Any) -> Any:
        counts["sim.kernel.events"] = deployment.net.sim.events_executed
        counts["sim.radio.frames_sent"] = deployment.net.radio.stats.frames_sent
        return call("experiments.collect", collect, deployment, *args, **kwargs)

    patches.set(Deployment, "collect", traced_collect)
    span_method(patches, tracer, deployment, "build_topology", "setup.topology")
    span_classmethod(patches, tracer, Deployment, "create", "setup.network")
    return patches
