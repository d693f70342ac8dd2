"""Discrete-event simulation kernel.

This module is the bottom-most substrate of the reproduction: a small,
deterministic discrete-event scheduler in the style of TOSSIM's event queue.
Every other simulated component (radio, timers, protocol state machines)
schedules callbacks through a :class:`Simulator` instance.

Determinism rules:

* Events firing at the same timestamp run in the order they were scheduled.
  A monotonically increasing sequence number is part of every queue entry's
  sort key, so ordering never falls through to comparing callbacks or
  payloads (which would be a latent ``TypeError`` and a nondeterminism
  hazard).
* All randomness used by simulated components must come from
  :attr:`Simulator.rng`, which is seeded at construction, so a run is a pure
  function of ``(scenario, seed)``.

Performance notes (see DESIGN.md, "Performance architecture"):

* Queue entries are plain ``(time, seq, event)`` tuples — tuple comparison
  runs entirely in C and, because ``seq`` values are distinct, never reaches
  the event object.
* Events are ``__slots__`` records; the event *is* the cancellation handle
  (:class:`EventHandle` is an alias), so scheduling allocates exactly one
  object plus one tuple.
* The queue is one C ``heapq`` list. Cancelling only flags an event; the
  pop loops discard flagged entries when they reach the front.
"""

from __future__ import annotations

from heapq import heappop, heappush
from random import Random
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently (e.g. past scheduling)."""


class _Event:
    """A scheduled callback; doubles as its own cancellation handle."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., None], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: Public name for the object returned by :meth:`Simulator.schedule`:
#: exposes ``cancel()``, ``cancelled`` and ``time``. Cancelling an event
#: that already fired (or was already cancelled) is a no-op.
EventHandle = _Event

#: A queue entry: ``(time, seq, event)``.
_Entry = Tuple[float, int, _Event]


class Simulator:
    """A deterministic discrete-event simulator clock.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator. Components
        must draw randomness only from :attr:`rng`.
    """

    __slots__ = (
        "_heap",
        "_seq",
        "now",
        "rng",
        "seed",
        "events_executed",
    )

    def __init__(self, seed: int = 0):
        #: the event queue, a C ``heapq`` of ``(time, seq, event)`` entries
        self._heap: List[_Entry] = []
        self._seq = 0
        #: current simulation time in seconds (read-only by convention;
        #: a plain attribute rather than a property because hot callbacks
        #: read it hundreds of thousands of times per trial).
        self.now = 0.0
        self.rng = Random(seed)
        self.seed = seed
        #: number of events executed so far (diagnostic; exported per trial
        #: as ``TrialMetrics.timing["events_processed"]``)
        self.events_executed = 0

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        event = _Event(time, fn, args)
        self._seq += 1
        heappush(self._heap, (time, self._seq, event))
        return event

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        event = _Event(time, fn, args)
        self._seq += 1
        heappush(self._heap, (time, self._seq, event))
        return event

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue was empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                self.now = event.time
                self.events_executed += 1
                event.fn(*event.args)
                return True
        return False

    def run(self, until: float) -> None:
        """Run events in timestamp order until the clock reaches ``until``.

        The clock is left exactly at ``until`` even if the queue drains
        early, so back-to-back ``run`` calls advance monotonically.
        """
        if until < self.now:
            raise SimulationError(f"cannot run backwards to {until}")
        heap = self._heap
        while heap and heap[0][0] <= until:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            self.now = event.time
            self.events_executed += 1
            event.fn(*event.args)
        self.now = max(self.now, until)


class Timer:
    """A restartable one-shot or periodic timer bound to a :class:`Simulator`.

    The callback fires with no arguments. Periodic timers may apply a
    uniform jitter fraction to de-synchronize simulated nodes, matching the
    behaviour of real motes whose clocks drift.
    """

    __slots__ = (
        "_sim",
        "_callback",
        "_interval",
        "_periodic",
        "_jitter",
        "_handle",
    )

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        interval: Optional[float] = None,
        periodic: bool = False,
        jitter: float = 0.0,
    ):
        if periodic and interval is None:
            raise SimulationError("periodic timer needs an interval")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {jitter}")
        self._sim = sim
        self._callback = callback
        self._interval = interval
        self._periodic = periodic
        self._jitter = jitter
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def _next_delay(self, base: float) -> float:
        if self._jitter <= 0.0:
            return base
        spread = base * self._jitter
        return base + self._sim.rng.uniform(-spread, spread)

    def start(self, delay: Optional[float] = None) -> None:
        """(Re)start the timer; ``delay`` overrides the configured interval
        for the first firing only.

        An explicit ``delay`` fires exactly when asked: callers that pass
        one are deliberately staggering startup themselves, so jitter
        applies only to interval-derived delays.
        """
        self.stop()
        if delay is not None:
            first = delay
        elif self._interval is not None:
            first = self._next_delay(self._interval)
        else:
            raise SimulationError("timer started without a delay or interval")
        self._handle = self._sim.schedule(max(0.0, first), self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        if self._periodic and self._interval is not None:
            self._handle = self._sim.schedule(
                max(0.0, self._next_delay(self._interval)), self._fire
            )
        self._callback()
