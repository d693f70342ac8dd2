"""Tree-based multihop routing (Woo et al. style), per Sections 2.2 and 5.1.

Each node selects exactly one parent that is "one hop closer to the
basestation than itself"; parent selection minimises cumulative path ETX
using the snooping link estimator, with hysteresis so the tree is stable
under noisy estimates. The root (node 0) advertises path cost 0.

Beyond the parent pointer, the service maintains the two bounded lists the
paper's routing rules depend on (Section 5.1):

* a **descendants list** (max 32 entries) mapping each known descendant to
  the child branch it is reachable through, learned "by tracking all nodes
  on whose behalf it routes packets up the routing tree";
* a **neighbor list** (max 32 entries), "independent of the routing tree",
  used to take shortcuts. It is the link estimator's table itself: the
  mote gives both the same cap, so the table never holds more entries
  than the list may.

Entries are evicted LRU-style when the lists overflow and when nodes fall
silent, "thus adapting to changes in network connectivity".

Parent re-ranking is incremental. A candidate's cost is its advertised
path ETX plus the link estimator's ETX to it, and between two beacons
only the neighbors in the estimator's ``changed`` set (plus the beacon's
sender) can have a new cost. So each beacon merges just those into the
cached best candidate, ordered by (cost, rank), where the rank records
the candidate's position in the table, the tie-break of a full sweep.
The full sweep runs instead when that merge could differ from it: a
candidate may have timed out, one was removed, or the best one got
worse. Either way the parent, its cost and every counter come out the
same.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.linkest import LinkEstimator


@dataclass(slots=True)
class BeaconPayload:
    """Routing beacon: the sender's advertised path cost and parent."""

    path_etx: float
    parent: Optional[int]

    def wire_bytes(self) -> int:
        return 5


class _ParentCandidate:
    """One neighbor's last-advertised route (updated in place per beacon)."""

    __slots__ = ("advertised_etx", "last_heard", "rank")

    def __init__(self, advertised_etx: float, last_heard: float, rank: int):
        self.advertised_etx = advertised_etx
        self.last_heard = last_heard
        #: insertion order among the candidates: ranks ascend in dict order
        self.rank = rank


class RoutingTree:
    """Routing-tree state machine for a single node.

    The owning mote must feed it beacons (:meth:`on_beacon`), uplink
    forwarding observations (:meth:`note_uplink`) and overheard origin/parent
    headers (:meth:`note_origin_header`), and should consult
    :attr:`parent`, :meth:`next_hop_down` and :meth:`in_neighbor_list` when
    routing. The descendants list holds ``max_descendants`` entries
    ("32, in our experiments"), least recently refreshed out first.
    """

    __slots__ = (
        "node_id",
        "sim",
        "linkest",
        "is_root",
        "beacon_interval",
        "max_descendants",
        "switch_threshold",
        "parent_timeout",
        "parent",
        "path_etx",
        "_candidates",
        "_next_rank",
        "_best",
        "_best_cost",
        "_best_rank",
        "_heard_floor",
        "_descendants",
        "neighbor_parents",
        "parent_changes",
    )

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        linkest: LinkEstimator,
        is_root: bool = False,
        beacon_interval: float = 10.0,
        max_descendants: int = 32,
        switch_threshold: float = 0.75,
        parent_timeout_beacons: float = 8.0,
    ):
        self.node_id = node_id
        self.sim = sim
        self.linkest = linkest
        self.is_root = is_root
        self.beacon_interval = beacon_interval
        self.max_descendants = max_descendants
        self.switch_threshold = switch_threshold
        self.parent_timeout = parent_timeout_beacons * beacon_interval

        self.parent: Optional[int] = None
        self.path_etx: float = 0.0 if is_root else math.inf
        self._candidates: Dict[int, _ParentCandidate] = {}
        self._next_rank = 0
        # The last evaluation's best candidate (None when every cost was
        # infinite; rank -1 then, so no tie can pick an infinite cost) and
        # a lower bound on the candidates' last_heard; -inf forces a full
        # sweep.
        self._best: Optional[int] = None
        self._best_cost = math.inf
        self._best_rank = -1
        self._heard_floor = math.inf
        #: descendant -> next-hop child, most-recently-used last
        self._descendants: "OrderedDict[int, int]" = OrderedDict()
        #: neighbor -> the parent it advertised in its last beacon; lets a
        #: node recognise which link-senders are its children (used to learn
        #: descendants from up-routed data frames).
        self.neighbor_parents: Dict[int, Optional[int]] = {}
        self.parent_changes = 0

    # ------------------------------------------------------------------
    # Beacon handling / parent selection
    # ------------------------------------------------------------------
    def beacon_payload(self) -> BeaconPayload:
        return BeaconPayload(path_etx=self.path_etx, parent=self.parent)

    #: Parent candidates advertising a path cost above this are ignored.
    #: Routing cycles disconnected from the root (count-to-infinity during
    #: churn) inflate their advertised cost every beacon round; the ceiling
    #: makes such cycles self-destruct within a few beacons.
    MAX_PATH_ETX = 100.0

    def on_beacon(self, sender: int, payload: BeaconPayload) -> None:
        self.neighbor_parents[sender] = payload.parent
        if self.is_root:
            return
        candidates = self._candidates
        if payload.parent == self.node_id or payload.path_etx > self.MAX_PATH_ETX:
            # The sender routes through us (loop) or advertises a cost that
            # only a cycle can produce: not a usable parent.
            if candidates.pop(sender, None) is not None:
                self._heard_floor = -math.inf
            self._reevaluate()
            return
        now = self.sim.now
        cand = candidates.get(sender)
        if cand is None:
            candidates[sender] = _ParentCandidate(
                payload.path_etx, now, self._next_rank
            )
            self._next_rank += 1
            if now < self._heard_floor:
                self._heard_floor = now
        else:
            # In place, so the candidate keeps its table position and rank.
            # The clock never runs backwards, so the floor still holds.
            cand.advertised_etx = payload.path_etx
            cand.last_heard = now
        self.linkest.changed.add(sender)
        self._reevaluate()

    def _reevaluate(self) -> None:
        # Runs on every received/snooped beacon. Costs read the link
        # estimator's cached per-record ETX directly (not linkest.etx()):
        # the method-call tax dominated this profile.
        now = self.sim.now
        candidates = self._candidates
        cutoff = now - self.parent_timeout
        parent = self.parent
        inf = math.inf
        table = self.linkest._table
        changed = self.linkest.changed
        best = self._best
        best_cost = self._best_cost
        sweep = self._heard_floor < cutoff
        if not sweep and best is not None and best in changed:
            rec = table.get(best)
            cost = candidates[best].advertised_etx + (
                rec.etx if rec is not None else inf
            )
            # A best that got no worse still beats every unchanged
            # candidate; one that got worse may not.
            sweep = cost > best_cost
            best_cost = cost
        if sweep:
            best, best_cost, current_cost = self._sweep(cutoff)
        else:
            # The new best is the old one or a changed candidate: merge
            # the changed ones by (cost, rank), a strict total order, so
            # the set's iteration order does not matter.
            best_rank = self._best_rank
            for nbr in changed:
                cand = candidates.get(nbr)
                if cand is None:
                    continue
                rec = table.get(nbr)
                cost = cand.advertised_etx + (rec.etx if rec is not None else inf)
                if cost < best_cost or (cost == best_cost and cand.rank < best_rank):
                    best, best_cost, best_rank = nbr, cost, cand.rank
            self._best, self._best_cost, self._best_rank = best, best_cost, best_rank
            current_cost = None
            if parent is not None:
                # After every evaluation the parent is None or a live
                # candidate, and only a sweep removes candidates.
                cand = candidates[parent]
                rec = table.get(parent)
                current_cost = cand.advertised_etx + (
                    rec.etx if rec is not None else inf
                )
        changed.clear()

        if current_cost is None:
            # Parent fell out of the candidate table (or went stale).
            if parent is not None:
                parent = self.parent = None
                self.path_etx = inf
            current_cost = inf

        if best is None:
            return
        if parent is None or best_cost < current_cost - self.switch_threshold:
            if best != parent:
                self.parent_changes += 1
            self.parent = best
            current_cost = best_cost
        self.path_etx = current_cost

    def _sweep(self, cutoff: float) -> Tuple[Optional[int], float, Optional[float]]:
        """Rank every candidate: drop those not heard since ``cutoff``,
        refresh the caches, and return the best candidate, its cost and
        the parent's cost (None when the parent is not a live
        candidate)."""
        candidates = self._candidates
        parent = self.parent
        stale = None
        best: Optional[int] = None
        best_cost = math.inf
        current_cost: Optional[float] = None
        floor = inf = math.inf
        # Single pass: stale detection and the cost sweep share one loop.
        table = self.linkest._table
        for nbr, cand in candidates.items():
            heard = cand.last_heard
            if heard < cutoff:
                if stale is None:
                    stale = [nbr]
                else:
                    stale.append(nbr)
                continue
            if heard < floor:
                floor = heard
            rec = table.get(nbr)
            cost = cand.advertised_etx + (rec.etx if rec is not None else inf)
            if cost < best_cost:
                best, best_cost = nbr, cost
            if nbr == parent:
                current_cost = cost

        if stale:
            for nbr in stale:
                del candidates[nbr]
        self._best, self._best_cost = best, best_cost
        self._best_rank = candidates[best].rank if best is not None else -1
        self._heard_floor = floor
        return best, best_cost, current_cost

    def reset(self) -> None:
        """Forget all routing state (a cold reboot loses RAM; the node
        rejoins the tree from beacons like a freshly booted mote)."""
        self.parent = None
        self.path_etx = 0.0 if self.is_root else math.inf
        self._candidates.clear()
        self._heard_floor = -math.inf
        self._descendants.clear()
        self.neighbor_parents.clear()

    @property
    def joined(self) -> bool:
        """True once the node has a route to the basestation."""
        return self.is_root or self.parent is not None

    # ------------------------------------------------------------------
    # Descendants list
    # ------------------------------------------------------------------
    def note_uplink(self, origin: int, via_child: int) -> None:
        """Record that a packet from ``origin`` was routed up through
        ``via_child`` (so ``origin`` is a descendant on that branch)."""
        if origin == self.node_id:
            return
        for desc in (origin, via_child):
            if desc == self.node_id:
                continue
            self._descendants.pop(desc, None)
            self._descendants[desc] = via_child
        self._trim_descendants()

    def note_origin_header(self, origin: int, origin_parent: Optional[int]) -> None:
        """Learn from the Scoop packet header (every packet carries its
        origin and the origin's parent): a node whose parent is us is a
        direct child."""
        if origin_parent == self.node_id and origin != self.node_id:
            self._descendants.pop(origin, None)
            self._descendants[origin] = origin
            self._trim_descendants()

    def _trim_descendants(self) -> None:
        while len(self._descendants) > self.max_descendants:
            self._descendants.popitem(last=False)

    def sender_is_child(self, sender: int) -> bool:
        """True when ``sender``'s last beacon advertised us as its parent,
        i.e. frames arriving from it are travelling *up* the tree."""
        return self.neighbor_parents.get(sender, None) == self.node_id

    def in_descendants(self, node: int) -> bool:
        return node in self._descendants

    def next_hop_down(self, node: int) -> Optional[int]:
        """The child branch through which ``node`` is reachable, if known."""
        return self._descendants.get(node)

    def descendants(self) -> List[int]:
        return list(self._descendants.keys())

    def forget_descendant(self, node: int) -> None:
        self._descendants.pop(node, None)

    # ------------------------------------------------------------------
    # Neighbor list (the link estimator's table)
    # ------------------------------------------------------------------
    def neighbor_list(self) -> List[int]:
        return self.linkest.neighbors()

    def in_neighbor_list(self, node: int) -> bool:
        return self.linkest.knows(node)
