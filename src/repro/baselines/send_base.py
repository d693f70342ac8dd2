"""The BASE baseline: send every reading to the basestation.

Section 4/6 of the paper: "In BASE, all nodes send their data up the
routing tree to the basestation and queries have no associated cost" —
the TinyDB/Cougar collection model Scoop's introduction argues against.
Readings are transmitted as they are produced (one data message per
sample, the acquisitional model of TinyDB), so "on average, each data item
[is] sent roughly halfway across the network" and the root becomes the
reception hotspot the paper measures in its skew experiment.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.basestation import Basestation
from repro.core.messages import DataMessage, WireReading
from repro.core.node import ScoopNode
from repro.core.query import Query


class SendToBaseNode(ScoopNode):
    """Ships each reading straight up the routing tree, unbatched."""

    def on_boot(self) -> None:
        pass  # no mapping dissemination under BASE

    def _start_summaries(self) -> None:
        pass  # BASE sends no summaries

    def _choose_owner(self, value: int, attr: int = 0) -> Optional[int]:
        return self.config.basestation_id

    def _place(self, reading: WireReading, owner: Optional[int], attr: int) -> None:
        message = DataMessage(readings=[reading], owner=owner, sid=0, attr=attr)
        self._route_by_rules(message)


class SendToBaseBasestation(Basestation):
    """All data already lives here; queries cost nothing (Section 6)."""

    def on_boot(self) -> None:
        pass

    def start_scoop(self) -> None:
        pass  # no remapping under BASE

    def plan_query(self, query: Query) -> Set[int]:
        """Answer every query from the local store: zero radio targets."""
        return set()
