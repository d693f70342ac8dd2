"""Packet-level lossy radio medium with CSMA, collisions and link ACKs.

Models the Mica2-style shared channel the paper runs on (Section 2.1-2.2):

* a single shared channel at ~38.6 kbps; per-frame airtime is computed from
  the frame size, so congestion is emergent rather than assumed;
* CSMA-CA style carrier sensing: a node defers transmission with random
  backoff while it can hear an ongoing transmission;
* collisions at the *receiver*: two transmissions overlapping in time, both
  audible at a receiver, corrupt each other there (hidden terminals collide
  even though CSMA spaced out mutually-audible senders) — this is what
  produces the paper's observation that ~40% of summary messages are lost
  "mostly due to network congestion near the basestation";
* independent per-link Bernoulli loss from the ground-truth
  :class:`~repro.sim.topology.Topology` (paper: 25-90% loss on audible
  pairs, asymmetric);
* unicast frames use link-layer ACKs with bounded retransmissions, so lossy
  links translate into *more transmitted messages* — the cost the storage
  index's ``xmits`` term is designed to avoid (property P4);
* half-duplex: a node cannot receive while transmitting;
* snooping: every successfully received frame not addressed to a node is
  still handed to it (`on_snoop`), which feeds link estimation.

All message-count and energy accounting flows through this module so no
protocol layer can forget to pay for a transmission.

Performance architecture (see DESIGN.md)
----------------------------------------

The reception fan-out is the single hottest loop in a trial, so the radio
derives from the topology's loss array, once per topology at construction:

* ``_audible_ids[src]`` — the audible receivers of ``src``, ascending;
* ``_loss_rows[src]`` — the aligned per-link loss probabilities, as an
  ``array("d")``;
* ``_audible_sets[src]`` — the same receivers as a frozenset, for
  membership and shared-receiver tests.

Interference is local, so no check scans the channel's history. ``_air``
holds only the transmissions now on the air (a handful, even on a
1024-node network). When a transmission starts, it is linked with each
on-air transmission that can corrupt it at one of its receivers, and
vice versa: a sender that is one of its receivers (half-duplex), or one
that shares an audible receiver with it (collision). Each transmission's
``overlaps`` list thus holds, at its end, exactly the transmissions that
decide its receivers' collision outcomes. Carrier sense scans ``_air``.

All radio randomness (loss outcomes and every backoff) comes from a
dedicated :class:`~repro.sim.rngstream.BatchedUniformStream` seeded from
the trial seed, not from ``sim.rng``. Loss draws obey a fixed discipline:
**every transmission consumes exactly ``len(_audible_ids[src])`` uniforms,
in ascending receiver id order, regardless of collision or failure
outcomes** — one ``take(k)`` list of Python floats, each compared with
its receiver's entry of ``_loss_rows[src]``. The number of draws is thus
a function of the sender alone, which keeps the stream's position
independent of what happens to each frame.

A transmission's end settles its reception in one pass. Each audible
receiver is first classified as dead, collided (or sending itself), lost
or delivered; the delivered ones are then handed the frame in ascending
id order, with the handler chosen once for the frame's kind: every
receiver of a broadcast gets ``on_receive``; the destination of a
unicast gets its ACK scheduled and then ``on_receive``, the destination
of an ACK completes the acknowledged send, and every other receiver gets
``on_snoop``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Protocol, Set

import numpy as np

from repro.sim.energy import EnergyMeter
from repro.sim.kernel import Simulator
from repro.sim.metrics import MessageCensus
from repro.sim.packets import BROADCAST, Frame, FrameKind
from repro.sim.rngstream import BatchedUniformStream
from repro.sim.topology import OUT_OF_RANGE, Topology


class RadioListener(Protocol):
    """Interface a mote exposes to the radio."""

    node_id: int

    def on_receive(self, frame: Frame) -> None:
        """Frame addressed to this node (or broadcast) arrived intact."""

    def on_snoop(self, frame: Frame) -> None:
        """Overheard a frame addressed to someone else."""


# Physical/MAC layer parameters, approximating a Mica2.
BITRATE_BPS = 38_600.0
#: CSMA random backoff window (seconds). ``BACKOFF_MIN`` must exceed the
#: ACK turnaround + ACK airtime so acknowledgements are protected inside
#: the inter-frame gap, as in real CSMA-CA MACs.
BACKOFF_MIN = 0.003
BACKOFF_MAX = 0.020
#: Give up deferring and transmit anyway after this many busy sensings.
MAX_CSMA_ATTEMPTS = 16
#: Link-layer retransmissions for unicast frames (total tries = 1 + this).
#: Loss on audible pairs runs 25-90% (paper Section 6), and a hop only
#: succeeds when frame AND ack get through, so persistence is needed:
#: at 0.5 delivery each way, 6 tries give ~82% per-hop success.
MAX_RETRIES = 5
#: How long a sender waits for an ACK before retrying (seconds).
ACK_TIMEOUT = 0.060
#: Receive-to-ACK turnaround (seconds); kept below BACKOFF_MIN.
ACK_TURNAROUND = 0.0005


@dataclass(slots=True)
class RadioStats:
    """Aggregate channel diagnostics (not part of the paper's cost metric)."""

    frames_sent: int = 0
    frames_delivered: int = 0
    collisions: int = 0
    bernoulli_losses: int = 0
    csma_deferrals: int = 0
    unicast_failures: int = 0
    acks_sent: int = 0


class _Transmission:
    """One frame on the air from its start until ``end`` (exclusive)."""

    __slots__ = ("src", "frame", "bits", "end", "overlaps")

    def __init__(self, src: int, frame: Frame, bits: int, end: float):
        self.src = src
        self.frame = frame
        #: the frame's size on the air, computed once for its airtime
        self.bits = bits
        self.end = end
        #: transmissions overlapping this one in time that can corrupt it
        #: at one of its receivers (filled in as transmissions start)
        self.overlaps: List[_Transmission] = []


class _SendEntry:
    """A queued frame with its MAC retry/backoff state."""

    __slots__ = ("frame", "done", "tries", "csma_attempts", "retry_no")

    def __init__(
        self, frame: Frame, done: Optional[Callable[[bool], None]], tries: int
    ):
        self.frame = frame
        self.done = done
        self.tries = tries
        self.csma_attempts = 0
        self.retry_no = 0


class _PendingUnicast:
    """An entry whose final attempt was delivered and now awaits its ACK."""

    __slots__ = ("entry", "ack_handle")

    def __init__(self, entry: _SendEntry, ack_handle: Optional[object] = None):
        self.entry = entry
        self.ack_handle = ack_handle


class Radio:
    """The shared wireless medium connecting all motes in a simulation."""

    __slots__ = (
        "sim",
        "topology",
        "stats",
        "_stream",
        "_listeners",
        "_live",
        "_air",
        "_queues",
        "_busy_sending",
        "_pending_acks",
        "_failed",
        "_census",
        "_energy",
        "_audible_ids",
        "_loss_rows",
        "_audible_sets",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        census: MessageCensus,
        energy: EnergyMeter,
    ):
        self.sim = sim
        self.topology = topology
        self.stats = RadioStats()
        self._stream = BatchedUniformStream(sim.seed)
        self._listeners: Dict[int, RadioListener] = {}
        #: reception fast path: _live[node] is the node's listener when it
        #: can hear (registered and not failed), else None — one list index
        #: replaces a dict lookup plus a failed-set membership test in the
        #: per-receiver fan-out loop.
        self._live: List[Optional[RadioListener]] = [None] * topology.n
        #: transmissions now on the air
        self._air: List[_Transmission] = []
        #: per-node FIFO of frames waiting for the channel
        self._queues: Dict[int, List[_SendEntry]] = {}
        self._busy_sending: Dict[int, bool] = {}
        self._pending_acks: Dict[int, _PendingUnicast] = {}
        #: nodes whose radio is powered off (failure injection): they
        #: neither transmit, receive, ACK, nor run send-completion
        #: callbacks until revived.
        self._failed: Set[int] = set()
        #: billed for every attempt, and once per transmission for its
        #: whole reception fan-out
        self._census = census
        self._energy = energy
        self._build_neighbor_tables()

    def _build_neighbor_tables(self) -> None:
        """Precompute audibility/loss lookups (the topology is immutable).

        Built from the topology's loss array with array operations, but the
        per-frame loops read Python containers: receiver ids as lists and
        sets, which they index and probe far faster than numpy arrays, and
        loss rows as ``array("d")``, whose items arrive as Python floats
        for the compare with the stream's draws at a quarter of a float
        list's memory."""
        loss = self.topology.loss
        self._audible_ids: List[List[int]] = [
            np.flatnonzero(row).tolist() for row in loss < OUT_OF_RANGE
        ]
        self._audible_sets: List[FrozenSet[int]] = [
            frozenset(ids) for ids in self._audible_ids
        ]
        self._loss_rows: List[array[float]] = [
            array("d", loss[src, ids].tolist())
            for src, ids in enumerate(self._audible_ids)
        ]

    # ------------------------------------------------------------------
    # Registration and public send API
    # ------------------------------------------------------------------
    def register(self, listener: RadioListener) -> None:
        node = listener.node_id
        if node in self._listeners:
            raise ValueError(f"node {node} already registered")
        if not 0 <= node < self.topology.n:
            raise ValueError(f"node {node} outside topology of size {self.topology.n}")
        self._listeners[node] = listener
        self._live[node] = listener
        self._queues[node] = []
        self._busy_sending[node] = False

    # ------------------------------------------------------------------
    # Failure injection (node power state)
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Power the node's radio off: its send queue is lost, pending
        attempts go silent, and it stops hearing the channel."""
        if node not in self._queues:
            raise ValueError(f"node {node} is not registered with the radio")
        self._failed.add(node)
        self._live[node] = None
        self._queues[node].clear()
        self._busy_sending[node] = False

    def revive_node(self, node: int) -> None:
        """Power the node's radio back on (with an empty send queue)."""
        self._failed.discard(node)
        listener = self._listeners.get(node)
        if listener is not None:
            self._live[node] = listener

    def broadcast(self, frame: Frame) -> None:
        """Queue an unacknowledged broadcast frame."""
        if frame.dst != BROADCAST:
            raise ValueError("broadcast() requires frame.dst == BROADCAST")
        self._enqueue(frame.src, _SendEntry(frame, None, 1))

    def unicast(
        self, frame: Frame, done: Optional[Callable[[bool], None]] = None
    ) -> None:
        """Queue an acknowledged unicast frame.

        ``done(success)`` fires after the final attempt; ``success`` is True
        iff a link-layer ACK came back.
        """
        if frame.dst == BROADCAST:
            raise ValueError("unicast() requires a concrete destination")
        self._enqueue(frame.src, _SendEntry(frame, done, 1 + MAX_RETRIES))

    # ------------------------------------------------------------------
    # Channel access (CSMA)
    # ------------------------------------------------------------------
    def _enqueue(self, node: int, entry: _SendEntry) -> None:
        if node not in self._queues:
            raise ValueError(f"node {node} is not registered with the radio")
        if node in self._failed:
            return  # dead radio: the frame silently never leaves the node
        self._queues[node].append(entry)
        self._pump(node)

    def _pump(self, node: int) -> None:
        if self._busy_sending[node] or not self._queues[node]:
            return
        self._busy_sending[node] = True
        entry = self._queues[node][0]
        # Initial random backoff slot (CSMA-CA): transmissions triggered by
        # the same event (e.g. a broadcast everyone reacts to, or two nodes'
        # timers aligning) must not start at the same instant — carrier
        # sense cannot see a transmission that hasn't started yet.
        self.sim.schedule(
            self._stream.uniform(0.0002, BACKOFF_MIN * 2),
            self._try_send,
            node,
            entry,
        )

    def _channel_busy_until(self, node: int) -> float:
        """Latest end-time of any ongoing transmission audible at ``node``,
        or now if there is none. A node never hears itself: the topology
        has no self-links."""
        busy = self.sim.now
        audible_sets = self._audible_sets
        for tx in self._air:
            if tx.end > busy and node in audible_sets[tx.src]:
                busy = tx.end
        return busy

    def _try_send(self, node: int, entry: _SendEntry) -> None:
        if node in self._failed:
            return  # the node died while this attempt was scheduled
        busy_until = self._channel_busy_until(node)
        if busy_until > self.sim.now and entry.csma_attempts < MAX_CSMA_ATTEMPTS:
            entry.csma_attempts += 1
            self.stats.csma_deferrals += 1
            backoff = self._stream.uniform(BACKOFF_MIN, BACKOFF_MAX)
            self.sim.schedule(
                (busy_until - self.sim.now) + backoff, self._try_send, node, entry
            )
            return
        self._start_transmission(node, entry)

    # ------------------------------------------------------------------
    # Transmission and reception
    # ------------------------------------------------------------------
    def _start_transmission(self, node: int, entry: _SendEntry) -> None:
        self.stats.frames_sent += 1
        self._transmit(node, entry.frame, entry)

    def _transmit(self, src: int, frame: Frame, entry: Optional[_SendEntry]) -> None:
        """Put ``frame`` on the air now and link it with every on-air
        transmission that can corrupt it, or that it can corrupt, at a
        receiver (see the module docstring)."""
        bits = frame.size_bits()
        airtime = bits / BITRATE_BPS
        now = self.sim.now
        tx = _Transmission(src, frame, bits, now + airtime)
        audible_sets = self._audible_sets
        reach = audible_sets[src]
        overlaps = tx.overlaps
        for other in self._air:
            # One ending exactly now has finished; its end event is pending.
            if other.end > now:
                other_reach = audible_sets[other.src]
                shared = not reach.isdisjoint(other_reach)
                if shared or other.src in reach:
                    overlaps.append(other)
                if shared or src in other_reach:
                    other.overlaps.append(tx)
        self._air.append(tx)
        self._census.record_transmit(src, frame.kind, bits)
        self._energy.radio_tx(src, bits)
        self.sim.schedule(airtime, self._finish_transmission, tx, entry)

    def _finish_transmission(
        self, tx: _Transmission, entry: Optional[_SendEntry]
    ) -> None:
        frame = tx.frame
        src = tx.src
        self._air.remove(tx)
        receivers = self._audible_ids[src]
        # Draw-count discipline: exactly len(receivers) loss uniforms per
        # transmission, ascending receiver order, consumed before any
        # outcome is known.
        draws = self._stream.take(len(receivers))

        # Settle every receiver's outcome first. It depends only on the
        # draws, the overlaps and which radios are live, and no handler
        # run below changes any of them.
        live = self._live
        overlaps = tx.overlaps
        if overlaps:
            # Dropped so that finished transmissions do not keep each other
            # alive.
            tx.overlaps = []
            sending = {other.src for other in overlaps}
            missed = sending.union(*[self._audible_sets[s] for s in sending])
        else:
            sending = missed = set()
        delivered: List[int] = []
        n_collisions = 0
        n_losses = 0
        for receiver, draw, loss in zip(receivers, draws, self._loss_rows[src]):
            if live[receiver] is None:
                continue  # unregistered or dead radios hear nothing
            if receiver in missed:
                # A receiver that was itself sending misses the frame without
                # a collision being counted (half-duplex); any other that
                # hears an overlapping sender has it corrupted there.
                if receiver not in sending:
                    n_collisions += 1
            elif draw < loss:
                n_losses += 1
            else:
                delivered.append(receiver)
        stats = self.stats
        if n_collisions:
            stats.collisions += n_collisions
        if n_losses:
            stats.bernoulli_losses += n_losses

        # Then hand the frame over, in ascending receiver order, with the
        # handler picked once for the transmission's kind.
        dst = frame.dst
        is_broadcast = dst == BROADCAST
        is_ack = frame.kind is FrameKind.ACK
        delivered_to_dst = False
        if is_broadcast:
            for receiver in delivered:
                live[receiver].on_receive(frame)
        elif is_ack:
            for receiver in delivered:
                if receiver == dst:
                    self._handle_ack_arrival(receiver, frame)
                else:
                    live[receiver].on_snoop(frame)
        else:
            for receiver in delivered:
                if receiver == dst:
                    delivered_to_dst = True
                    self._schedule_ack(receiver, src, frame)
                    live[receiver].on_receive(frame)
                else:
                    live[receiver].on_snoop(frame)
        if delivered:
            stats.frames_delivered += len(delivered)
            self._census.record_deliveries(delivered, frame.kind)
            self._energy.radio_rx_batch(delivered, tx.bits)

        if is_ack:
            return  # ACK frames are fire-and-forget and bypass the queues

        if src in self._failed:
            return  # sender died mid-air: nobody is waiting on this entry

        if is_broadcast:
            self._complete_entry(src, entry, success=True)
        elif delivered_to_dst:
            # Wait for the ACK (which may itself be lost -> retry).
            pending = _PendingUnicast(entry)
            pending.ack_handle = self.sim.schedule(
                ACK_TIMEOUT,
                self._ack_timeout,
                src,
                entry,
                frame.frame_id,
            )
            self._pending_acks[frame.frame_id] = pending
        else:
            self._retry_or_fail(src, entry)

    # ------------------------------------------------------------------
    # Link-layer ACK machinery
    # ------------------------------------------------------------------
    def _schedule_ack(self, from_node: int, to_node: int, original: Frame) -> None:
        ack = Frame(
            src=from_node,
            dst=to_node,
            kind=FrameKind.ACK,
            payload=_AckPayload(original.frame_id),
        )
        self.stats.acks_sent += 1
        # ACKs are sent at MAC level with a fixed turnaround and skip CSMA.
        self.sim.schedule(ACK_TURNAROUND, self._transmit, from_node, ack, None)

    def _handle_ack_arrival(self, receiver: int, ack_frame: Frame) -> None:
        payload: _AckPayload = ack_frame.payload
        pending = self._pending_acks.pop(payload.acked_frame_id, None)
        if pending is None:
            return  # duplicate or stale ACK
        if pending.ack_handle is not None:
            pending.ack_handle.cancel()
        self._complete_entry(receiver, pending.entry, True)

    def _ack_timeout(self, sender: int, entry: _SendEntry, frame_id: int) -> None:
        pending = self._pending_acks.pop(frame_id, None)
        if pending is None:
            return  # ACK arrived concurrently
        self._retry_or_fail(sender, entry)

    def _retry_or_fail(self, sender: int, entry: _SendEntry) -> None:
        if sender in self._failed:
            return  # a dead node retries nothing and runs no callbacks
        entry.tries -= 1
        if entry.tries > 0:
            entry.csma_attempts = 0
            entry.retry_no += 1
            # Exponential random backoff: colliding senders that timed out
            # together must desynchronise or they will collide forever.
            window = BACKOFF_MAX * (2**entry.retry_no)
            self.sim.schedule(
                self._stream.uniform(BACKOFF_MIN, window),
                self._try_send,
                sender,
                entry,
            )
        else:
            self.stats.unicast_failures += 1
            self._complete_entry(sender, entry, success=False)

    def _complete_entry(self, sender: int, entry: _SendEntry, success: bool) -> None:
        queue = self._queues.get(sender)
        if queue and queue[0].frame is entry.frame:
            queue.pop(0)
        self._busy_sending[sender] = False
        if entry.done is not None:
            entry.done(success)
        self._pump(sender)


@dataclass(slots=True)
class _AckPayload:
    acked_frame_id: int

    def wire_bytes(self) -> int:
        return 2
