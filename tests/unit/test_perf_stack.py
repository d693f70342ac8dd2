"""Regression tests for the performance stack.

These tests pin the properties the optimized hot paths rely on:

* same-timestamp events never fall through to comparing callbacks or
  payloads — the classic ``heapq`` ``TypeError`` hazard the monotonic
  sequence tie-break exists to prevent;
* the radio's batched uniform stream serves ``take(k)`` blocks that are
  draw-for-draw the same as ``k`` single draws (see the stream-refill
  discipline in ``repro.sim.rngstream``);
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

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.sim.kernel import Simulator
from repro.sim.rngstream import BatchedUniformStream

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
    def test_same_timestamp_unorderable_payloads(self):
        # Many events at the same instant force the queue to order entries
        # by the (time, seq) prefix alone; reaching the event object (whose
        # args are unorderable) would raise TypeError.
        sim = Simulator(seed=0)
        fired = []
        for i in range(200):
            sim.schedule(1.0, lambda i=i, _p=_Unorderable(): fired.append(i))
        sim.run(2.0)
        assert fired == list(range(200))

    def test_interleaved_times_and_ties_fifo(self):
        sim = Simulator(seed=0)
        fired = []
        for i in range(50):
            sim.schedule(2.0, fired.append, ("late", i))
            sim.schedule(1.0, fired.append, ("early", i))
        sim.run(3.0)
        assert fired == [("early", i) for i in range(50)] + [
            ("late", i) for i in range(50)
        ]


class TestStreamDiscipline:
    def test_stream_take_matches_sequential_draws(self):
        # take(k) consumes exactly the same underlying uniforms as k
        # successive random() calls, across block-refill boundaries.
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
