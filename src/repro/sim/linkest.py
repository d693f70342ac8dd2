"""Snooping-based link-quality estimation.

Per Section 5.2 of the paper: "A node establishes link-quality from its
neighbors by snooping the network and, per neighbor, counting the number of
packets it did not receive using a monotonically increasing number that all
nodes put in the header of all their outgoing packets."

Every frame a node hears (addressed to it or snooped) carries the sender's
sequence number; gaps in the sequence are missed packets. The estimator
keeps a windowed reception-rate estimate per neighbor, evicts neighbors not
heard from "for a long time" (Section 5.1), and caps the table at the
paper's 32 entries.

Hot-path note: :meth:`hear` runs for every heard frame, so it does work
in proportion to what changed. Quality and ETX are recomputed there once
and cached on the ``__slots__`` neighbor record, where the routing tree
reads them. The sender joins :attr:`LinkEstimator.changed`, the set of
neighbors the routing tree re-ranks at its next beacon (it clears the
set). An insert scans the table for silent entries only when a lower
bound on the oldest ``last_heard`` says one may have timed out.

The entry an insert into a full table evicts is the first one of minimal
quality in table order. Quality is at most 1.0, and on a dense network
nearly every entry sits at exactly 1.0, so the estimator keeps the few
records below 1.0 apart, each with its insertion stamp (table order is
insertion order). The victim is the lowest of those, ties going to the
oldest stamp, or the table's first entry when there are none, so no
insert scans the whole table.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Set, Tuple

#: eviction order among the records below quality 1.0: worst first, ties
#: to the record inserted first (the first in table order)
_eviction_rank = attrgetter("quality", "stamp")


class _NeighborRecord:
    """Windowed reception estimate for one heard neighbor."""

    __slots__ = (
        "neighbor",
        "last_seqno",
        "received",
        "missed",
        "last_heard",
        "quality",
        "etx",
        "stamp",
    )

    def __init__(
        self, neighbor: int, last_seqno: int, last_heard: float, stamp: int
    ):
        self.neighbor = neighbor
        self.last_seqno = last_seqno
        self.received = 1.0
        self.missed = 0.0
        self.last_heard = last_heard
        #: cached ``received / (received + missed)``, updated on hear().
        self.quality = 1.0
        #: cached ``1 / quality^2`` (see :meth:`LinkEstimator.etx`).
        self.etx = 1.0
        #: insertion count at insert: later records have larger stamps
        self.stamp = stamp


class LinkEstimator:
    """Inbound link-quality table for one node.

    Parameters
    ----------
    max_neighbors:
        Table capacity (paper: 32); the worst-quality entry is evicted when
        a new neighbor is heard while full.
    silence_timeout:
        Seconds of not hearing a neighbor after which it is dropped.
    decay:
        Multiplicative decay applied to the (received, missed) window when a
        new packet arrives, giving an exponentially weighted estimate that
        adapts to changing conditions.
    """

    __slots__ = (
        "max_neighbors",
        "silence_timeout",
        "decay",
        "_table",
        "_below",
        "_inserts",
        "_heard_floor",
        "changed",
    )

    def __init__(
        self,
        max_neighbors: int = 32,
        silence_timeout: float = 300.0,
        decay: float = 0.98,
    ):
        self.max_neighbors = max_neighbors
        self.silence_timeout = silence_timeout
        self.decay = decay
        self._table: Dict[int, _NeighborRecord] = {}
        #: the records whose quality is below 1.0, the only candidates for
        #: eviction ahead of the table's first entry
        self._below: Dict[int, _NeighborRecord] = {}
        #: records inserted so far (the next record's stamp)
        self._inserts = 0
        #: at most the oldest ``last_heard`` in the table (lowered on every
        #: write below it, so it holds even if ``now`` goes backwards)
        self._heard_floor = math.inf
        #: neighbors inserted, updated or dropped since the routing tree
        #: last re-ranked its candidates (it clears the set)
        self.changed: Set[int] = set()

    def hear(self, neighbor: int, seqno: int, now: float) -> None:
        """Record a successfully heard frame from ``neighbor``."""
        self.changed.add(neighbor)
        record = self._table.get(neighbor)
        if record is None:
            self._maybe_evict(now)
            self._table[neighbor] = _NeighborRecord(
                neighbor, seqno, now, self._inserts
            )
            self._inserts += 1
            if now < self._heard_floor:
                self._heard_floor = now
            return
        gap = seqno - record.last_seqno - 1
        decay = self.decay
        received = record.received * decay + 1.0
        missed = record.missed * decay
        if gap > 0:
            missed += gap
        record.received = received
        record.missed = missed
        if seqno > record.last_seqno:
            record.last_seqno = seqno
        record.last_heard = now
        if now < self._heard_floor:
            self._heard_floor = now
        quality = received / (received + missed)
        if quality < 1.0:
            self._below[neighbor] = record
        elif record.quality < 1.0:
            del self._below[neighbor]
        record.quality = quality
        record.etx = 1.0 / (quality * quality)

    def _maybe_evict(self, now: float) -> None:
        # Every entry was heard at or after the floor, so while the floor
        # is within the timeout no entry can have expired.
        if now - self._heard_floor > self.silence_timeout:
            self.expire(now)
        table = self._table
        if len(table) < self.max_neighbors:
            return
        # The first record of minimal quality in table order: every record
        # outside ``_below`` is at the maximum, 1.0.
        below = self._below
        if below:
            worst = min(below.values(), key=_eviction_rank).neighbor
            del below[worst]
        else:
            worst = next(iter(table))
        del table[worst]
        self.changed.add(worst)

    def reset(self) -> None:
        """Forget every neighbor (a cold reboot loses the RAM table)."""
        self.changed.update(self._table)
        self._table.clear()
        self._below.clear()
        self._heard_floor = math.inf

    def expire(self, now: float) -> None:
        """Drop neighbors not heard within the silence timeout."""
        timeout = self.silence_timeout
        table = self._table
        stale = [nbr for nbr, rec in table.items() if now - rec.last_heard > timeout]
        below = self._below
        for nbr in stale:
            del table[nbr]
            below.pop(nbr, None)
        self.changed.update(stale)
        self._heard_floor = min(
            (rec.last_heard for rec in table.values()), default=math.inf
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knows(self, neighbor: int) -> bool:
        return neighbor in self._table

    def quality(self, neighbor: int) -> float:
        """Estimated inbound delivery rate from ``neighbor`` (0 if unknown)."""
        record = self._table.get(neighbor)
        return record.quality if record is not None else 0.0

    def etx(self, neighbor: int) -> float:
        """Expected transmissions for one hop from/to ``neighbor``.

        Only the inbound rate is observable by snooping; it is used as a
        symmetric proxy (squared, since a successful acknowledged hop needs
        both the frame and the ACK to get through).
        """
        record = self._table.get(neighbor)
        return record.etx if record is not None else float("inf")

    def neighbors(self) -> List[int]:
        return list(self._table.keys())

    def best_neighbors(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` best-quality neighbors as (id, quality), sorted
        descending — the list shipped in summary messages (paper: 12)."""
        ranked = sorted(
            ((nbr, rec.quality) for nbr, rec in self._table.items()),
            key=lambda item: item[1],
            reverse=True,
        )
        return ranked[:k]

    def __len__(self) -> int:
        return len(self._table)
