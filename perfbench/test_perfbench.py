"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import CallbackOwners, Tracer, callback_layer  # noqa: E402
from specs import open_loop_schedule, tenant_names  # noqa: E402
from stats import nearest_rank  # noqa: E402


# ----------------------------------------------------------------------
# nearest-rank percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_the_covering_sample():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.50) == 50
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([7.0], 0.99) == 7.0
    assert nearest_rank([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0


def test_nearest_rank_leaves_ten_samples_beyond_p99_of_a_thousand():
    values = [float(i) for i in range(1000)]
    p99 = nearest_rank(values, 0.99)
    assert sum(1 for v in values if v > p99) == 10


def test_failures_count_as_infinite_latency():
    latencies = [1.0] * 98 + [math.inf, math.inf]
    assert nearest_rank(latencies, 0.50) == 1.0
    assert nearest_rank(latencies, 0.99) == math.inf
    assert nearest_rank([5.0, math.inf, 1.0, math.inf], 0.5) == 5.0


@pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
def test_nearest_rank_rejects_bad_quantiles(q):
    with pytest.raises(ValueError):
        nearest_rank([1.0], q)


def test_nearest_rank_rejects_empty_sample():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.work(2.0)

    def middle():
        clock.work(1.0)
        tracer.call("leaf", leaf)
        clock.work(0.5)

    def root():
        clock.work(3.0)
        tracer.call("middle", middle)
        tracer.call("leaf", leaf)
        clock.work(1.0)

    tracer.call("root", root)
    clock.work(5.0)  # outside every span: unattributed
    tracer.call("leaf", leaf)
    assert dict(tracer.self_s) == {"root": 4.0, "middle": 1.5, "leaf": 6.0}
    assert tracer.covered_s == 11.5
    assert sum(tracer.self_s.values()) == tracer.covered_s


def test_a_layer_nested_in_itself_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.work(2.0)

    def outer():
        clock.work(1.0)
        tracer.call("a", inner)

    tracer.call("a", outer)
    assert dict(tracer.self_s) == {"a": 3.0}
    assert tracer.covered_s == 3.0


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.work(1.0)
        raise KeyError("x")

    def parent():
        with pytest.raises(KeyError):
            tracer.call("child", boom)
        clock.work(1.0)

    tracer.call("parent", parent)
    assert dict(tracer.self_s) == {"child": 1.0, "parent": 1.0}
    assert tracer.covered_s == 2.0


def test_callbacks_are_charged_to_their_owner():
    from repro.sim.kernel import Simulator, Timer

    assert callback_layer("repro.sim.radio", "Radio._try_send") == "sim.radio"
    assert callback_layer("repro.core.basestation", "Basestation._remap") == "core.planner"
    assert callback_layer("repro.sim.trickle", "Trickle._fire") == "core.node"
    assert callback_layer("repro.sim.failure", "FailureInjector._kill") == "sim.failure"

    class Sampler:
        def sample(self):
            pass

    Sampler.sample.__module__ = "repro.core.node"
    timer = Timer(Simulator(), Sampler().sample, interval=1.0)
    assert CallbackOwners()(timer._fire) == "core.node"


# ----------------------------------------------------------------------
# open-loop schedule
# ----------------------------------------------------------------------
def test_schedule_is_a_pure_function_of_the_seed():
    first = open_loop_schedule(seed=3, requests=400)
    assert first == open_loop_schedule(seed=3, requests=400)
    assert first != open_loop_schedule(seed=4, requests=400)


def test_schedule_is_a_poisson_stream_over_every_tenant():
    offers = open_loop_schedule(seed=1, requests=2000)
    offsets = [o.offset_s for o in offers]
    assert offsets == sorted(offsets) and offsets[0] > 0
    assert 2000 / offsets[-1] == pytest.approx(50.0, rel=0.1)
    per_tenant = {t: sum(1 for o in offers if o.tenant == t) for t in tenant_names()}
    assert all(n > 800 for n in per_tenant.values())
    assert all(0 <= o.lo <= o.hi <= 100 for o in offers)


# ----------------------------------------------------------------------
# the wrappers change no behaviour
# ----------------------------------------------------------------------
def test_traced_trial_is_identical_and_fully_attributed():
    from repro.core.config import canonical_key
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import smoke
    from trial import measure

    spec = dataclasses.replace(smoke(seed=1)[0], topology_kind="grid")
    untraced = canonical_key(run_experiment(spec).deterministic_dict())
    traced = measure(spec, traced=True)
    assert traced["digest"] == untraced
    assert traced["queries"] > 0
    assert traced["trial_covered_s"] >= 0.9 * traced["trial_s"]
    assert traced["counts"]["sim.linkest.hears"] > 0
    assert traced["counts"]["sim.kernel.events"] > 0
    # measure() took its wrappers off again
    assert canonical_key(run_experiment(spec).deterministic_dict()) == untraced
