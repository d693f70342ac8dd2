"""Trickle: self-regulating gossip dissemination (Levis et al., NSDI'04).

Scoop uses Trickle to disseminate storage-index "chunks" to all nodes
(Section 5.3). This module implements:

* :class:`Trickle` — the classic algorithm: an interval that doubles from
  ``imin`` to ``imax``, a redundancy counter ``k``, transmission at a random
  point in the second half of the interval unless suppressed, and interval
  reset on hearing inconsistent (out-of-date) state;
* :class:`ChunkDisseminator` — the version-and-chunks state machine layered
  on Trickle: nodes advertise ``(version, chunk-bitmap)``; a node that hears
  a neighbor with an older version or missing chunks it holds broadcasts the
  missing chunks; a node that hears a newer version resets its Trickle so
  the update propagates quickly.

The disseminator is deliberately generic over the chunk payload (anything
with ``sid``, ``index`` and ``total`` attributes) so the core package can
define the actual :class:`~repro.core.messages.MappingChunk` wire format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Optional, Protocol, Set, TypeVar

from repro.sim.kernel import EventHandle, Simulator


class Trickle:
    """The Trickle timer algorithm.

    Parameters
    ----------
    sim:
        Simulation kernel supplying time, scheduling and randomness.
    transmit:
        Called when the timer fires un-suppressed; should broadcast the
        node's current state (an advertisement).
    imin / imax:
        Minimum and maximum interval lengths in seconds.
    k:
        Redundancy constant: suppress transmission if ``k`` or more
        consistent advertisements were heard this interval.
    """

    __slots__ = (
        "sim",
        "transmit",
        "imin",
        "imax",
        "k",
        "interval",
        "_counter",
        "_fire_handle",
        "_end_handle",
        "_running",
        "transmissions",
        "suppressions",
    )

    def __init__(
        self,
        sim: Simulator,
        transmit: Callable[[], None],
        imin: float = 1.0,
        imax: float = 60.0,
        k: int = 2,
    ):
        if imin <= 0 or imax < imin:
            raise ValueError("need 0 < imin <= imax")
        self.sim = sim
        self.transmit = transmit
        self.imin = imin
        self.imax = imax
        self.k = k
        self.interval = imin
        self._counter = 0
        self._fire_handle: Optional[EventHandle] = None
        self._end_handle: Optional[EventHandle] = None
        self._running = False
        self.transmissions = 0
        self.suppressions = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.interval = self.imin
        self._begin_interval()

    def stop(self) -> None:
        self._running = False
        for handle in (self._fire_handle, self._end_handle):
            if handle is not None:
                handle.cancel()
        self._fire_handle = None
        self._end_handle = None

    def _begin_interval(self) -> None:
        if not self._running:
            return
        self._counter = 0
        fire_at = self.sim.rng.uniform(self.interval / 2, self.interval)
        self._fire_handle = self.sim.schedule(fire_at, self._fire)
        self._end_handle = self.sim.schedule(self.interval, self._interval_end)

    def _fire(self) -> None:
        if self._counter < self.k:
            self.transmissions += 1
            self.transmit()
        else:
            self.suppressions += 1

    def _interval_end(self) -> None:
        self.interval = min(self.interval * 2, self.imax)
        self._begin_interval()

    def heard_consistent(self) -> None:
        """A neighbor advertised the same state we hold."""
        self._counter += 1

    def heard_inconsistent(self) -> None:
        """Someone is out of date (or we are): reset to the fast interval."""
        if not self._running:
            return
        if self.interval > self.imin or self._fire_handle is None:
            for handle in (self._fire_handle, self._end_handle):
                if handle is not None:
                    handle.cancel()
            self.interval = self.imin
            self._begin_interval()


class Chunk(Protocol):
    """Anything disseminable: a piece ``index`` of ``total`` for version
    ``sid``."""

    sid: int
    index: int
    total: int


C = TypeVar("C", bound=Chunk)

#: Chunks one response burst sends at most; the rest wait for the next
#: advertisement that still lacks them.
MAX_CHUNKS_PER_RESPONSE = 6


@dataclass(slots=True)
class Advertisement:
    """Trickle metadata broadcast: which version and chunks a node holds."""

    sid: int
    have: frozenset  # chunk indices held
    total: int

    def wire_bytes(self) -> int:
        # sid (2) + total (1) + bitmap (total/8 rounded up, >=1)
        return 3 + max(1, (self.total + 7) // 8)


class ChunkDisseminator(Generic[C]):
    """Versioned chunk dissemination over Trickle for one node.

    The owning mote supplies ``send_advert`` and ``send_chunk`` callbacks
    (which put frames on the air) and forwards incoming adverts/chunks to
    :meth:`on_advert` / :meth:`on_chunk`. ``on_complete`` fires exactly once
    per version, when the final missing chunk arrives.

    The default Trickle bounds are Scoop's mapping dissemination: imin
    2 s, and imax 120 s, half the paper's 240 s remap interval, so
    steady-state maintenance is one advert per neighborhood per 2
    minutes, negligible next to data traffic.
    """

    __slots__ = (
        "sim",
        "_send_advert",
        "_send_chunk",
        "_on_complete",
        "sid",
        "total",
        "_chunks",
        "_completed",
        "_response_pending",
        "_response_handle",
        "trickle",
    )

    def __init__(
        self,
        sim: Simulator,
        send_advert: Callable[[Advertisement], None],
        send_chunk: Callable[[C], None],
        on_complete: Callable[[int, List[C]], None],
        imin: float = 2.0,
        imax: float = 120.0,
        k: int = 2,
    ):
        self.sim = sim
        self._send_advert = send_advert
        self._send_chunk = send_chunk
        self._on_complete = on_complete
        self.sid: int = -1
        self.total: int = 0
        self._chunks: Dict[int, C] = {}
        self._completed = False
        self._response_pending: Set[int] = set()
        self._response_handle: Optional[EventHandle] = None
        self.trickle = Trickle(sim, self._advertise, imin=imin, imax=imax, k=k)

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.trickle.start()

    def stop(self) -> None:
        self.trickle.stop()
        if self._response_handle is not None:
            self._response_handle.cancel()
            self._response_handle = None
        self._response_pending.clear()

    def reset(self) -> None:
        """Back to the never-heard-anything state (a cold reboot loses the
        RAM chunk store); :meth:`start` begins re-collecting from adverts."""
        self.stop()
        self.sid = -1
        self.total = 0
        self._chunks = {}
        self._completed = False

    @property
    def complete(self) -> bool:
        return self.total > 0 and len(self._chunks) == self.total

    def held_chunks(self) -> List[C]:
        return [self._chunks[i] for i in sorted(self._chunks)]

    def seed(self, sid: int, chunks: List[C]) -> None:
        """Install a full new version locally (the basestation does this
        after computing a new storage index) and start gossiping it."""
        if sid <= self.sid and self.sid >= 0:
            raise ValueError(f"seed version {sid} is not newer than {self.sid}")
        self.sid = sid
        self.total = len(chunks)
        self._chunks = {chunk.index: chunk for chunk in chunks}
        self._completed = True  # seeding node doesn't re-fire on_complete
        self.trickle.heard_inconsistent()

    def _advertise(self) -> None:
        self._send_advert(
            Advertisement(sid=self.sid, have=frozenset(self._chunks), total=self.total)
        )

    # ------------------------------------------------------------------
    # Network input
    # ------------------------------------------------------------------
    def on_advert(self, advert: Advertisement) -> None:
        if advert.sid == self.sid:
            missing_at_peer = set(self._chunks) - set(advert.have)
            we_are_missing = set(advert.have) - set(self._chunks)
            if not missing_at_peer and not we_are_missing:
                self.trickle.heard_consistent()
                return
            if missing_at_peer:
                self._queue_response(missing_at_peer)
            self.trickle.heard_inconsistent()
        elif advert.sid < self.sid:
            # Peer is behind a whole version: send our chunks.
            self._queue_response(set(self._chunks))
            self.trickle.heard_inconsistent()
        else:
            # We are behind: speed up so our (stale) adverts solicit data.
            self.trickle.heard_inconsistent()

    def on_chunk(self, chunk: C) -> None:
        if chunk.sid < self.sid:
            self.trickle.heard_inconsistent()
            return
        if chunk.sid > self.sid:
            self.sid = chunk.sid
            self.total = chunk.total
            self._chunks = {}
            self._completed = False
            self.trickle.heard_inconsistent()
        if chunk.index in self._chunks:
            return
        self._chunks[chunk.index] = chunk
        if self.complete and not self._completed:
            self._completed = True
            self._on_complete(self.sid, self.held_chunks())

    # ------------------------------------------------------------------
    # Chunk responses (rate-limited, randomly delayed to avoid synchrony)
    # ------------------------------------------------------------------
    def _queue_response(self, chunk_indices: Set[int]) -> None:
        self._response_pending |= chunk_indices
        if self._response_handle is None:
            delay = self.sim.rng.uniform(0.05, 0.5)
            self._response_handle = self.sim.schedule(delay, self._flush_response)

    def _flush_response(self) -> None:
        self._response_handle = None
        to_send = sorted(self._response_pending)[:MAX_CHUNKS_PER_RESPONSE]
        self._response_pending.clear()
        for index in to_send:
            chunk = self._chunks.get(index)
            if chunk is not None:
                self._send_chunk(chunk)
