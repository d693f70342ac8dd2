"""Differential and regression tests for the performance stack.

The optimized hot paths must be drop-in replacements, and these tests pin
the equivalences the optimization relies on:

* the kernel's two queue backends (binary heap, calendar queue) pop in
  bit-identical ``(time, seq)`` order, on synthetic churn workloads and on
  full trials (``REPRO_SIM_SCHEDULER``);
* the radio's vectorized and scalar loss paths consume the same RNG draws
  (see the stream-refill discipline in ``repro.sim.rngstream``) and
  therefore produce metric-identical trials on pinned seeds
  (``REPRO_RADIO_PATH``);
* same-timestamp events never fall through to comparing callbacks or
  payloads — the classic ``heapq`` ``TypeError`` hazard the monotonic
  sequence tie-break exists to prevent;
* the per-trial timing record (``events_processed`` / ``events_per_sec``)
  is populated, and determinism checks exclude exactly the wall-clock
  derived fields;
* the trial and serving entry points import neither networkx nor scipy,
  which the set-up time and peak memory of every process rely on.
"""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.sim.kernel import Simulator
from repro.sim.rngstream import BatchedUniformStream, numpy_available

SRC = Path(__file__).resolve().parents[2] / "src"


def small_spec(seed: int = 1, **overrides) -> ExperimentSpec:
    """A 14-node SCOOP spec that simulates in a fraction of a second."""
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
    config.update(overrides)
    return ExperimentSpec(
        policy="scoop", workload="gaussian", scoop=ScoopConfig(**config), seed=seed
    )


class _Unorderable:
    """A callback argument with no ordering — entries must never compare it."""

    __lt__ = None  # type: ignore[assignment]


class TestTieBreak:
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_same_timestamp_unorderable_payloads(self, scheduler):
        # Many events at the same instant force the queue to order entries
        # by the (time, seq) prefix alone; reaching the event object (whose
        # args are unorderable) would raise TypeError.
        sim = Simulator(seed=0, scheduler=scheduler)
        fired = []
        for i in range(200):
            sim.schedule(1.0, lambda i=i, _p=_Unorderable(): fired.append(i))
        sim.run(2.0)
        assert fired == list(range(200))

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_interleaved_times_and_ties_fifo(self, scheduler):
        sim = Simulator(seed=0, scheduler=scheduler)
        fired = []
        for i in range(50):
            sim.schedule(2.0, fired.append, ("late", i))
            sim.schedule(1.0, fired.append, ("early", i))
        sim.run(3.0)
        assert fired == [("early", i) for i in range(50)] + [
            ("late", i) for i in range(50)
        ]


class TestSchedulerDifferential:
    def _churn_trace(self, scheduler: str):
        """Run a randomized schedule/cancel workload; return the pop trace."""
        sim = Simulator(seed=0, scheduler=scheduler)
        rng = Random(1234)
        trace = []
        handles = []

        def fire(tag):
            trace.append((round(sim.now, 9), tag))
            # Events schedule more events, at wildly mixed horizons (the
            # calendar queue must resize and skip sparse stretches).
            if len(trace) < 3000:
                delay = rng.choice([0.0, 1e-4, 0.013, 0.4, 7.0, 120.0])
                handles.append(sim.schedule(delay, fire, len(trace)))
                if len(handles) > 16 and rng.random() < 0.3:
                    handles.pop(rng.randrange(len(handles))).cancel()

        for i in range(40):
            sim.schedule(rng.random() * 5.0, fire, -i)
        sim.run_until_idle()
        return trace

    def test_heap_and_calendar_pop_identically(self):
        assert self._churn_trace("heap") == self._churn_trace("calendar")

    def test_full_trial_identical_across_backends(self, monkeypatch):
        results = {}
        for backend in ("heap", "calendar"):
            monkeypatch.setenv("REPRO_SIM_SCHEDULER", backend)
            results[backend] = run_experiment(small_spec(seed=3))
        assert (
            results["heap"].deterministic_dict()
            == results["calendar"].deterministic_dict()
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception):
            Simulator(seed=0, scheduler="splay-tree")


class TestRadioPathDifferential:
    @pytest.mark.skipif(not numpy_available(), reason="vector path needs numpy")
    @pytest.mark.parametrize("seed", [1, 2])
    def test_vector_and_scalar_paths_identical(self, monkeypatch, seed):
        results = {}
        for path in ("vector", "scalar"):
            monkeypatch.setenv("REPRO_RADIO_PATH", path)
            results[path] = run_experiment(small_spec(seed=seed))
        assert (
            results["vector"].deterministic_dict()
            == results["scalar"].deterministic_dict()
        )

    def test_stream_take_matches_sequential_draws(self):
        # The discipline both paths rely on: take(k) consumes exactly the
        # same underlying uniforms as k successive random() calls, across
        # block-refill boundaries.
        a = BatchedUniformStream(99)
        b = BatchedUniformStream(99)
        for k in (1, 3, 4093, 17, 5000):
            block = a.take(k)
            singles = [b.random() for _ in range(k)]
            assert [float(x) for x in block] == singles


class TestTimingRecord:
    def test_events_processed_exported_and_rate_excluded(self):
        result = run_experiment(small_spec(seed=5))
        timing = result.metrics.timing
        assert timing["events_processed"] > 0
        assert timing["events_per_sec"] > 0
        det = result.deterministic_dict()
        det_timing = det["metrics"]["timing"]
        # The deterministic view keeps the event count (a pure function of
        # the spec) and drops only the wall-clock derived rate.
        assert det_timing["events_processed"] == timing["events_processed"]
        assert "events_per_sec" not in det_timing
        assert det["metrics"]["wall_clock_s"] == 0.0


class TestImportFootprint:
    def test_entry_points_import_no_graph_or_scipy_package(self):
        probe = (
            "import sys\n"
            "import repro.experiments.runner, repro.service.shard\n"
            "print(sorted({'networkx', 'scipy'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == "[]"
