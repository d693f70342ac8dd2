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
* ``_loss_rows[src]`` — the aligned per-link loss probabilities (a numpy
  array on the vectorized path, a plain list on the scalar path);
* ``_audible_bool`` — the full n×n audibility matrix for O(1) carrier-sense
  and collision checks.

All radio randomness (loss outcomes and every backoff) comes from a
dedicated :class:`~repro.sim.rngstream.BatchedUniformStream` seeded from
the trial seed, not from ``sim.rng``. Loss draws obey a fixed discipline:
**every transmission consumes exactly ``len(_audible_ids[src])`` uniforms,
in ascending receiver id order, regardless of collision or failure
outcomes**. Both the vectorized path (one ``take(k)`` block compare) and
the scalar path (``k`` successive ``random()`` calls) therefore consume
byte-identical draws, which is what the differential determinism tests pin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Set

import numpy as np

from repro.sim.kernel import Simulator
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


@dataclass(slots=True)
class RadioConfig:
    """Physical/MAC layer parameters (defaults approximate a Mica2)."""

    bitrate_bps: float = 38_600.0
    #: CSMA random backoff window (seconds). ``backoff_min`` must exceed the
    #: ACK turnaround + ACK airtime so acknowledgements are protected inside
    #: the inter-frame gap, as in real CSMA-CA MACs.
    backoff_min: float = 0.003
    backoff_max: float = 0.020
    #: Give up deferring and transmit anyway after this many busy sensings.
    max_csma_attempts: int = 16
    #: Link-layer retransmissions for unicast frames (total tries = 1 + this).
    #: Loss on audible pairs runs 25-90% (paper Section 6), and a hop only
    #: succeeds when frame AND ack get through, so persistence is needed:
    #: at 0.5 delivery each way, 6 tries give ~82% per-hop success.
    max_retries: int = 5
    #: How long a sender waits for an ACK before retrying (seconds).
    ack_timeout: float = 0.060
    #: Receive-to-ACK turnaround (seconds); kept below backoff_min.
    ack_turnaround: float = 0.0005


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
    """One frame on the air for [start, end)."""

    __slots__ = ("src", "frame", "start", "end")

    def __init__(self, src: int, frame: Frame, start: float, end: float):
        self.src = src
        self.frame = frame
        self.start = start
        self.end = end


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
        "config",
        "stats",
        "path",
        "_stream",
        "_listeners",
        "_live",
        "_air",
        "_queues",
        "_busy_sending",
        "_pending_acks",
        "_failed",
        "_on_transmit",
        "_on_delivery",
        "_on_deliveries",
        "_audible_ids",
        "_loss_rows",
        "_audible_bool",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[RadioConfig] = None,
        on_transmit: Optional[Callable[[int, Frame], None]] = None,
        on_delivery: Optional[Callable[[int, int, Frame], None]] = None,
        on_deliveries: Optional[Callable[[int, List[int], Frame, int], None]] = None,
        path: Optional[str] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config or RadioConfig()
        self.stats = RadioStats()
        if path is None:
            path = os.environ.get("REPRO_RADIO_PATH", "vector")
        if path not in ("vector", "scalar"):
            raise ValueError(f"unknown radio path {path!r}")
        self.path = path
        self._stream = BatchedUniformStream(sim.seed)
        self._listeners: Dict[int, RadioListener] = {}
        #: reception fast path: _live[node] is the node's listener when it
        #: can hear (registered and not failed), else None — one list index
        #: replaces a dict lookup plus a failed-set membership test in the
        #: per-receiver fan-out loop.
        self._live: List[Optional[RadioListener]] = [None] * topology.n
        #: recent/ongoing transmissions, pruned opportunistically
        self._air: List[_Transmission] = []
        #: per-node FIFO of frames waiting for the channel
        self._queues: Dict[int, List[_SendEntry]] = {}
        self._busy_sending: Dict[int, bool] = {}
        self._pending_acks: Dict[int, _PendingUnicast] = {}
        #: nodes whose radio is powered off (failure injection): they
        #: neither transmit, receive, ACK, nor run send-completion
        #: callbacks until revived.
        self._failed: Set[int] = set()
        #: census/energy hooks: (sender, frame) per attempt; (src, dst, frame)
        #: per successful delivery, or — preferred by the accounting hot
        #: path — (src, receivers, frame, bits) once per transmission.
        self._on_transmit = on_transmit
        self._on_delivery = on_delivery
        self._on_deliveries = on_deliveries
        self._build_neighbor_tables()

    def _build_neighbor_tables(self) -> None:
        """Precompute audibility/loss lookups (the topology is immutable).

        Built from the topology's loss array with array operations, but the
        audibility rows and receiver ids are kept as Python lists: the
        per-frame loops index those far faster than numpy arrays."""
        loss = self.topology.loss
        audible = loss < OUT_OF_RANGE
        self._audible_bool: List[List[bool]] = audible.tolist()
        self._audible_ids: List[List[int]] = [
            np.flatnonzero(row).tolist() for row in audible
        ]
        rows = [loss[src, ids] for src, ids in enumerate(self._audible_ids)]
        self._loss_rows: List[object] = (
            rows if self.path == "vector" else [row.tolist() for row in rows]
        )

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
    def is_failed(self, node: int) -> bool:
        return node in self._failed

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
        self._enqueue(frame.src, _SendEntry(frame, done, 1 + self.config.max_retries))

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
            self._stream.uniform(0.0002, self.config.backoff_min * 2),
            self._try_send,
            node,
            entry,
        )

    def _channel_busy_until(self, node: int) -> float:
        """Latest end-time of any ongoing transmission audible at ``node``."""
        now = self.sim.now
        busy = now
        audible_bool = self._audible_bool
        for tx in self._air:
            if tx.end > now and tx.src != node and audible_bool[tx.src][node]:
                if tx.end > busy:
                    busy = tx.end
        return busy

    def _try_send(self, node: int, entry: _SendEntry) -> None:
        if node in self._failed:
            return  # the node died while this attempt was scheduled
        busy_until = self._channel_busy_until(node)
        cfg = self.config
        if busy_until > self.sim.now and entry.csma_attempts < cfg.max_csma_attempts:
            entry.csma_attempts += 1
            self.stats.csma_deferrals += 1
            backoff = self._stream.uniform(cfg.backoff_min, cfg.backoff_max)
            self.sim.schedule(
                (busy_until - self.sim.now) + backoff, self._try_send, node, entry
            )
            return
        self._start_transmission(node, entry)

    # ------------------------------------------------------------------
    # Transmission and reception
    # ------------------------------------------------------------------
    def _start_transmission(self, node: int, entry: _SendEntry) -> None:
        frame = entry.frame
        airtime = frame.size_bits() / self.config.bitrate_bps
        now = self.sim.now
        tx = _Transmission(node, frame, now, now + airtime)
        self._air.append(tx)
        self.stats.frames_sent += 1
        if self._on_transmit is not None:
            self._on_transmit(node, frame)
        self.sim.schedule(airtime, self._finish_transmission, tx, entry)

    def _finish_transmission(
        self, tx: _Transmission, entry: Optional[_SendEntry]
    ) -> None:
        frame = tx.frame
        src = tx.src
        air = self._air
        if len(air) > 16:
            # Pruning is amortized: stale entries never overlap anything, so
            # they only cost scan time, and the scans stay short as long as
            # the list is kept bounded.
            self._prune_air()
            air = self._air
        # Compute the set of transmissions overlapping this one once; the
        # per-receiver check then only tests audibility of these few.
        if len(air) > 1:
            tx_start = tx.start
            tx_end = tx.end
            overlapping = [
                other
                for other in air
                if other is not tx and other.start < tx_end and tx_start < other.end
            ]
        else:
            overlapping = ()

        receivers = self._audible_ids[src]
        k = len(receivers)
        # Draw-count discipline: exactly k loss uniforms per transmission,
        # ascending receiver order, consumed before any outcome is known —
        # this keeps the vectorized and scalar paths (and serial vs
        # parallel campaign runs) on identical RNG trajectories.
        if self.path == "vector":
            lost = (self._stream.take(k) < self._loss_rows[src]).tolist()
        else:
            stream_random = self._stream.random
            loss_row = self._loss_rows[src]
            lost = [stream_random() < loss_row[i] for i in range(k)]

        live = self._live
        audible_bool = self._audible_bool
        stats = self.stats
        on_delivery = self._on_delivery
        on_deliveries = self._on_deliveries
        delivered: Optional[List[int]] = [] if on_deliveries is not None else None
        dst = frame.dst
        is_broadcast = dst == BROADCAST
        is_ack = frame.kind is FrameKind.ACK
        delivered_to_dst = False
        n_delivered = 0
        n_collisions = 0
        n_losses = 0
        for idx, receiver in enumerate(receivers):
            listener = live[receiver]
            if listener is None:
                continue  # unregistered or dead radios hear nothing

            if overlapping:
                # Half-duplex first (order-independent): a receiver that was
                # itself transmitting misses the frame without a collision
                # being counted; otherwise any audible overlap corrupts it.
                half_duplex = False
                collided = False
                for other in overlapping:
                    if other.src == receiver:
                        half_duplex = True
                        break
                    if not collided and audible_bool[other.src][receiver]:
                        collided = True
                if half_duplex:
                    continue
                if collided:
                    n_collisions += 1
                    continue
            if lost[idx]:
                n_losses += 1
                continue

            n_delivered += 1
            if delivered is not None:
                delivered.append(receiver)
            elif on_delivery is not None:
                on_delivery(src, receiver, frame)
            if is_broadcast:
                listener.on_receive(frame)
            elif dst == receiver:
                delivered_to_dst = True
                if is_ack:
                    self._handle_ack_arrival(receiver, frame)
                else:
                    self._schedule_ack(receiver, src, frame)
                    listener.on_receive(frame)
            else:
                listener.on_snoop(frame)
        stats.frames_delivered += n_delivered
        if n_collisions:
            stats.collisions += n_collisions
        if n_losses:
            stats.bernoulli_losses += n_losses
        if delivered:
            on_deliveries(src, delivered, frame, frame.size_bits())

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
                self.config.ack_timeout,
                self._ack_timeout,
                src,
                entry,
                frame.frame_id,
            )
            self._pending_acks[frame.frame_id] = pending
        else:
            self._retry_or_fail(src, entry)

    def _prune_air(self) -> None:
        # Keep a short history so overlap checks at frame end still see
        # transmissions that finished mid-frame (airtimes are ~10 ms).
        horizon = self.sim.now - 0.1
        if any(tx.end < horizon for tx in self._air):
            self._air = [tx for tx in self._air if tx.end >= horizon]

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
        self.sim.schedule(self.config.ack_turnaround, self._send_ack_now, ack)

    def _send_ack_now(self, ack: Frame) -> None:
        airtime = ack.size_bits() / self.config.bitrate_bps
        now = self.sim.now
        tx = _Transmission(ack.src, ack, now, now + airtime)
        self._air.append(tx)
        if self._on_transmit is not None:
            self._on_transmit(ack.src, ack)
        self.sim.schedule(airtime, self._finish_transmission, tx, None)

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
            cfg = self.config
            window = cfg.backoff_max * (2**entry.retry_no)
            self.sim.schedule(
                self._stream.uniform(cfg.backoff_min, window),
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
