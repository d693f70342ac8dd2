"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, Timer


class TestScheduling:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(10.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run(2.0)
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run(10.0)
        assert seen == [5.0]
        assert sim.now == 10.0

    def test_run_does_not_execute_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run(4.0)
        assert fired == []
        sim.run(6.0)
        assert fired == ["later"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run(2.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.run(1.0)

    def test_events_scheduled_during_events(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run(5.0)
        assert fired == ["outer", "inner"]

    def test_event_at_exact_run_boundary_executes(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(5.0)
        assert fired == ["edge"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run(5.0)
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run(5.0)
        handle.cancel()
        assert fired == ["x"]


class TestDeterminism:
    def test_same_seed_same_random_stream(self):
        a, b = Simulator(seed=42), Simulator(seed=42)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a, b = Simulator(seed=1), Simulator(seed=2)
        assert a.rng.random() != b.rng.random()


class TestTimer:
    def test_one_shot_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), interval=2.0)
        timer.start()
        sim.run(10.0)
        assert fired == [2.0]

    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), interval=2.0, periodic=True)
        timer.start()
        sim.run(7.0)
        assert fired == [2.0, 4.0, 6.0]

    def test_stop_halts_timer(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), interval=1.0, periodic=True)
        timer.start()
        sim.run(2.5)
        timer.stop()
        sim.run(10.0)
        assert fired == [1.0, 2.0]

    def test_start_with_override_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), interval=5.0, periodic=True)
        timer.start(delay=1.0)
        sim.run(7.0)
        assert fired == [1.0, 6.0]

    def test_explicit_delay_fires_exactly_despite_jitter(self):
        # Regression: start(delay=...) used to apply the configured jitter
        # to an explicit first delay, so deliberately staggered startups
        # were silently randomized.
        sim = Simulator(seed=5)
        fired = []
        timer = Timer(
            sim, lambda: fired.append(sim.now), interval=10.0, periodic=True, jitter=0.2
        )
        timer.start(delay=3.0)
        sim.run(4.0)
        assert fired == [3.0]

    def test_interval_derived_first_delay_still_jittered(self):
        sim = Simulator(seed=5)
        firings = []
        for _ in range(8):
            fired = []
            timer = Timer(
                sim, lambda f=fired: f.append(sim.now), interval=10.0, jitter=0.2
            )
            timer.start()  # no explicit delay: jitter applies
            firings.append(fired)
        start = sim.now
        sim.run(start + 13.0)
        first = [f[0] - start for f in firings]
        assert all(8.0 <= t <= 12.0 for t in first)
        assert len(set(round(t, 9) for t in first)) > 1

    def test_jitter_bounds(self):
        sim = Simulator(seed=3)
        fired = []
        timer = Timer(
            sim, lambda: fired.append(sim.now), interval=10.0, periodic=True, jitter=0.2
        )
        timer.start()
        sim.run(100.0)
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(8.0 <= g <= 12.0 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1  # actually jittered

    def test_periodic_requires_interval(self):
        with pytest.raises(SimulationError):
            Timer(Simulator(), lambda: None, periodic=True)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(SimulationError):
            Timer(Simulator(), lambda: None, interval=1.0, jitter=1.5)

    def test_restart_resets_schedule(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), interval=5.0)
        timer.start()
        sim.run(3.0)
        timer.start()  # restart at t=3
        sim.run(20.0)
        assert fired == [8.0]
