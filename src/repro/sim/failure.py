"""Failure injection: node death and churn schedules (E14).

The paper's Section 6 discussion notes that nodes die in real deployments
and that the basestation's adaptivity is what recovers: it simply stops
assigning value ranges to nodes it no longer hears from, and the next
storage index re-maps the dead owner's range. This module supplies the
*injection* half of that story:

* :class:`FailureEvent` — one node's kill time and optional revive time;
* :class:`FailureSchedule` — a validated batch of events, either
  spec-driven (explicit times) or generated from a seeded failure rate
  (:meth:`FailureSchedule.from_rate`), deterministically per seed;
* :class:`FailureInjector` — arms a schedule against a
  :class:`~repro.sim.network.Network`: at each kill time the mote's radio
  goes dark and its flash contents are orphaned mid-run; the routing
  tree, Trickle and the link estimators react organically (silence
  timeouts, parent re-selection) rather than being reset.

The basestation half — staleness-based eviction and range reassignment —
lives in :mod:`repro.core.statistics` and :mod:`repro.core.basestation`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.sim.network import Network


@dataclass(frozen=True)
class FailureEvent:
    """One node's lifecycle: killed at ``at``, optionally revived later."""

    node: int
    at: float
    revive_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node <= 0:
            raise ValueError(
                f"cannot schedule failure for node {self.node}; "
                "node 0 is the basestation and ids are positive"
            )
        if self.at < 0:
            raise ValueError(f"kill time must be >= 0, got {self.at}")
        if self.revive_at is not None and self.revive_at <= self.at:
            raise ValueError(
                f"revive time {self.revive_at} must be after kill time {self.at}"
            )


class FailureSchedule:
    """A validated, time-ordered batch of :class:`FailureEvent`\\ s.

    Each node may appear at most once — one death (and at most one
    rebirth) per node keeps the survival accounting unambiguous.
    """

    def __init__(self, events: Sequence[FailureEvent]):
        nodes = [event.node for event in events]
        if len(nodes) != len(set(nodes)):
            raise ValueError("each node may appear at most once in a schedule")
        self.events: Tuple[FailureEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at, e.node))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def from_rate(
        cls,
        rate: float,
        nodes: Sequence[int],
        window: Tuple[float, float],
        seed: int,
        revive_frac: float = 0.0,
        downtime: float = 0.0,
    ) -> "FailureSchedule":
        """A seeded random schedule killing ``rate`` of ``nodes``.

        ``round(rate * len(nodes))`` distinct nodes die at uniform times
        inside ``window``; the first ``revive_frac`` of them (by kill
        order) reboot ``downtime`` seconds after dying. The schedule is a
        pure function of its arguments — the RNG is private, so building
        one never perturbs the simulation's random stream.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"failure rate must be in [0, 1], got {rate}")
        if not 0.0 <= revive_frac <= 1.0:
            raise ValueError(f"revive_frac must be in [0, 1], got {revive_frac}")
        lo, hi = window
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= window start <= end, got {window}")
        if revive_frac > 0.0 and downtime <= 0.0:
            raise ValueError("reviving nodes need a positive downtime")
        rng = random.Random(f"churn:{seed}")
        victims = sorted(set(nodes))
        kills = round(rate * len(victims))
        # rng.sample's order IS the kill order: pairing it with the sorted
        # times keeps node-to-time assignment random (sorting the victims
        # here would make low node ids — which encode position in the
        # topology generators — systematically die first).
        chosen = rng.sample(victims, kills)
        times = sorted(rng.uniform(lo, hi) for _ in chosen)
        revived = round(revive_frac * kills)
        events = [
            FailureEvent(
                node=node,
                at=at,
                revive_at=(at + downtime) if position < revived else None,
            )
            for position, (node, at) in enumerate(zip(chosen, times))
        ]
        return cls(events)


class FailureInjector:
    """Binds a :class:`FailureSchedule` to a network's event kernel."""

    def __init__(self, net: Network, schedule: FailureSchedule):
        self.net = net
        self.schedule = schedule
        self.kills = 0
        self.revives = 0
        self._armed = False

    def arm(self) -> None:
        """Schedule every kill/revive on the simulation clock (once)."""
        if self._armed:
            raise RuntimeError("injector is already armed")
        self._armed = True
        for event in self.schedule:
            if event.node not in self.net.motes:
                raise ValueError(f"schedule names unknown node {event.node}")
            self.net.sim.schedule_at(event.at, self._kill, event)

    def _kill(self, event: FailureEvent) -> None:
        self.net.fail_node(event.node)
        self.kills += 1
        if event.revive_at is not None:
            self.net.sim.schedule_at(event.revive_at, self._revive, event)

    def _revive(self, event: FailureEvent) -> None:
        self.net.revive_node(event.node)
        self.revives += 1
