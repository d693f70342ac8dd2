"""Mote base class: the TinyOS-node-equivalent every application extends.

A :class:`Mote` owns the per-node protocol state the paper assumes of the
TinyOS stack: a monotonically increasing sequence number stamped into every
outgoing frame header, a snooping :class:`~repro.sim.linkest.LinkEstimator`,
and a :class:`~repro.sim.routing_tree.RoutingTree` maintained by periodic
beacons ("heartbeat messages", Section 6). Subclasses implement
:meth:`handle_frame` for application traffic.

Frame dispatch keeps the bookkeeping honest: *every* heard frame (received
or snooped, except link-layer ACKs) feeds the link estimator and the
origin/parent header feeds the descendants list, exactly as Section 5.2
describes the basestation and nodes learning topology from Scoop's custom
packet header. A snooped frame does nothing else: beacons are broadcast,
and the radio hands every broadcast to :meth:`on_receive`. The radio
consumes the ACKs addressed to a node itself, so only :meth:`on_snoop`
ever sees an ACK.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.sim.kernel import Simulator, Timer
from repro.sim.linkest import LinkEstimator
from repro.sim.packets import BROADCAST, Frame, FrameKind
from repro.sim.radio import Radio
from repro.sim.routing_tree import RoutingTree


class Mote:
    """Base simulated node. Node 0 is conventionally the basestation.

    The base class is slotted (protocol state is touched on every heard
    frame); application subclasses may add arbitrary attributes — they get
    a ``__dict__`` as usual, while the hot base fields stay in slots.
    """

    __slots__ = (
        "node_id",
        "sim",
        "radio",
        "is_root",
        "_seqno",
        "linkest",
        "tree",
        "_beacon_timer",
        "booted",
        "_seen_frames",
        "_seen_frames_cap",
        "_boot_handle",
        "__dict__",
    )

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        is_root: bool = False,
        beacon_interval: float = 10.0,
        neighbor_silence_timeout: float = 300.0,
        max_neighbors: int = 32,
    ):
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.is_root = is_root
        self._seqno = 0
        self.linkest = LinkEstimator(
            max_neighbors=max_neighbors, silence_timeout=neighbor_silence_timeout
        )
        self.tree = RoutingTree(
            node_id=node_id,
            sim=sim,
            linkest=self.linkest,
            is_root=is_root,
            beacon_interval=beacon_interval,
        )
        self._beacon_timer = Timer(
            sim, self._send_beacon, interval=beacon_interval, periodic=True, jitter=0.2
        )
        self.booted = False
        # Link-layer duplicate suppression (as in the TinyOS MAC): a lost
        # ACK makes the sender retransmit a frame the receiver already has;
        # without dedup each duplicate would re-propagate multiplicatively
        # at every hop. Keyed by frame identity, bounded LRU.
        self._seen_frames: "OrderedDict[int, None]" = OrderedDict()
        self._seen_frames_cap = 128
        self._boot_handle: Optional[object] = None
        radio.register(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def boot(self, delay: float = 0.0) -> None:
        """Start the node ``delay`` seconds from now."""
        self._boot_handle = self.sim.schedule(delay, self._boot_now)

    def _boot_now(self) -> None:
        self._boot_handle = None
        if self.booted:
            return
        self.booted = True
        self._beacon_timer.start(
            delay=self.sim.rng.uniform(0.1, self.tree.beacon_interval)
        )
        self.on_boot()

    def on_boot(self) -> None:
        """Subclass hook: called once when the node starts."""

    def fail(self) -> None:
        """Node death (failure injection): the CPU halts and the radio goes
        dark. The mote stops beaconing and ignores every frame; its flash
        chip keeps whatever it stored (flash is non-volatile)."""
        if self._boot_handle is not None:
            # Killed during the boot stagger: the pending boot must not
            # resurrect a dead node.
            self._boot_handle.cancel()
            self._boot_handle = None
        if not self.booted:
            return
        self.booted = False
        self._beacon_timer.stop()
        self.on_fail()

    def revive(self) -> None:
        """Cold reboot after a failure: volatile protocol state (routing
        tree, link estimates, dedup window) is gone, flash contents
        survive, and the node rejoins the network like a fresh boot."""
        if self.booted:
            return
        self.linkest.reset()
        self.tree.reset()
        self._seen_frames.clear()
        self.booted = True
        self._beacon_timer.start(
            delay=self.sim.rng.uniform(0.1, self.tree.beacon_interval)
        )
        self.on_revive()

    def on_fail(self) -> None:
        """Subclass hook: called when the node is killed."""

    def on_revive(self) -> None:
        """Subclass hook: called after a cold reboot."""

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def make_frame(
        self,
        dst: int,
        kind: FrameKind,
        payload: Any,
        origin: Optional[int] = None,
        origin_parent: Optional[int] = None,
    ) -> Frame:
        return Frame(
            src=self.node_id,
            dst=dst,
            kind=kind,
            payload=payload,
            origin=self.node_id if origin is None else origin,
            origin_parent=(
                self.tree.parent if origin_parent is None else origin_parent
            ),
            seqno=self.next_seqno(),
        )

    def broadcast(self, kind: FrameKind, payload: Any, **kw: Any) -> None:
        self.radio.broadcast(self.make_frame(BROADCAST, kind, payload, **kw))

    def unicast(
        self,
        dst: int,
        kind: FrameKind,
        payload: Any,
        done: Optional[Callable[[bool], None]] = None,
        **kw: Any,
    ) -> None:
        self.radio.unicast(self.make_frame(dst, kind, payload, **kw), done=done)

    def forward(
        self, frame: Frame, dst: int, done: Optional[Callable[[bool], None]] = None
    ) -> None:
        """Forward a received frame one more hop, preserving origin headers.

        Frames whose TTL is exhausted are dropped (loop protection)."""
        if frame.ttl <= 0:
            if done is not None:
                done(False)
            return
        self.radio.unicast(
            frame.copy_for_forward(src=self.node_id, dst=dst, seqno=self.next_seqno()),
            done=done,
        )

    def _send_beacon(self) -> None:
        self.broadcast(FrameKind.BEACON, self.tree.beacon_payload())

    # ------------------------------------------------------------------
    # Receiving (RadioListener interface)
    # ------------------------------------------------------------------
    def _is_duplicate(self, frame: Frame) -> bool:
        if frame.frame_id in self._seen_frames:
            return True
        self._seen_frames[frame.frame_id] = None
        while len(self._seen_frames) > self._seen_frames_cap:
            self._seen_frames.popitem(last=False)
        return False

    def on_receive(self, frame: Frame) -> None:
        if not self.booted:
            return
        self.linkest.hear(frame.src, frame.seqno, self.sim.now)
        # note_origin_header only acts when the origin's parent is us; the
        # guard is hoisted here because it is false for nearly every frame
        # and this runs once per heard frame.
        if frame.origin_parent == self.node_id:
            self.tree.note_origin_header(frame.origin, frame.origin_parent)
        if frame.kind is FrameKind.BEACON:
            self.tree.on_beacon(frame.src, frame.payload)
            return
        if self._is_duplicate(frame):
            return
        if frame.dst == self.node_id and frame.origin != self.node_id:
            # Learn descendants from frames travelling *up* the tree: we are
            # routing on behalf of frame.origin ("by tracking all nodes on
            # whose behalf it routes packets up the routing tree").
            # Summaries and replies always travel up; DATA frames can travel
            # down (rule 5), so those only count when the link sender's last
            # beacon named us as its parent.
            if frame.kind in (FrameKind.SUMMARY, FrameKind.REPLY) or (
                frame.kind is FrameKind.DATA and self.tree.sender_is_child(frame.src)
            ):
                self.tree.note_uplink(frame.origin, via_child=frame.src)
        self.handle_frame(frame)

    def on_snoop(self, frame: Frame) -> None:
        if self.booted and frame.kind is not FrameKind.ACK:
            self.linkest.hear(frame.src, frame.seqno, self.sim.now)
            if frame.origin_parent == self.node_id:
                self.tree.note_origin_header(frame.origin, frame.origin_parent)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame) -> None:
        """Application traffic addressed to (or broadcast past) this node."""
