"""The LOCAL baseline: store everything locally, flood every query.

Section 4/6 of the paper: "In LOCAL, nodes store all data locally and
queries are flooded to all nodes in the network; sensors send their reply
back." There is no statistics collection, no storage index and no mapping
dissemination — the only Scoop-category packets are query floods and the
replies they trigger.

Implementation note: LOCAL reuses the Scoop node/basestation machinery with
the adaptive parts switched off, so both systems share identical routing,
MAC and accounting substrates — differences in the measured message counts
come purely from the storage policy, as in the paper's comparison.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.basestation import Basestation
from repro.core.node import ScoopNode
from repro.core.query import Query


class LocalNode(ScoopNode):
    """Stores every reading in its own flash; never sends data/summaries."""

    def on_boot(self) -> None:
        # No mapping dissemination under LOCAL.
        pass

    def _start_summaries(self) -> None:
        pass  # LOCAL sends no summaries

    def _choose_owner(self, value: int, attr: int = 0) -> Optional[int]:
        return self.node_id


class LocalBasestation(Basestation):
    """Floods every query to every node; builds no indices."""

    def on_boot(self) -> None:
        pass  # no mapping dissemination

    def start_scoop(self) -> None:
        pass  # no remapping under LOCAL

    def plan_query(self, query: Query) -> Set[int]:
        """LOCAL "has to always query all nodes" (Section 6, Figure 4):
        without an index the basestation cannot narrow the flood, even for
        node-list queries — only the ``node_filter`` narrows the *answers*.
        """
        return set(range(1, self.config.n_nodes))
