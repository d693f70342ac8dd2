"""The basestation's transmission-cost model: ``xmits(x -> y)``.

Figure 2's algorithm needs the expected number of transmissions between any
two nodes. The basestation cannot see the true topology; per Section 5.2 it
estimates connectivity from two evidence streams:

* summary topology lists — each node reports its best inbound neighbors
  with link quality, giving directed delivery estimates;
* the (origin, origin's parent) headers on every packet that reaches the
  root, giving routing-tree edges even for nodes whose summaries were lost.

The model builds a directed graph weighted by expected transmissions per
acknowledged hop (``1/q²`` for delivery estimate ``q``, the same snooping
proxy nodes themselves use) and answers shortest-path queries with one
memoised Dijkstra per source (or per destination, over the reversed
graph). Property P4 of the paper — avoid owners behind lossy links —
falls out of these weights.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.statistics import BasestationStatistics
from repro.sim.topology import dijkstra

#: ``adjacency[u][v]`` is the hop cost of edge u -> v; every node is a key.
Adjacency = Dict[int, Dict[int, float]]

#: Delivery quality assumed for routing-tree edges whose quality was never
#: reported in a summary (a usable but unremarkable link).
DEFAULT_TREE_QUALITY = 0.7

#: Quality floor: evidence below this is clamped so one terrible report
#: cannot make a hop look infinitely expensive.
MIN_QUALITY = 0.10


def hop_cost(quality: float) -> float:
    """Expected transmissions for one acknowledged hop with delivery
    estimate ``quality`` (frame and ACK must both get through)."""
    q = max(MIN_QUALITY, min(1.0, quality))
    return 1.0 / (q * q)


class NetworkModel:
    """Shortest-path ``xmits`` oracle over the basestation's partial view.

    Every model keeps a ``stats`` counter dict — Dijkstra runs, memoized
    reuses, point queries — that the basestation folds into its per-trial
    planner telemetry (:class:`~repro.sim.metrics.TrialMetrics`), giving
    the index-construction side of the paper's cost story a measurable
    footprint next to the radio counts.
    """

    def __init__(self, adjacency: Adjacency):
        self._succ = adjacency
        self._from_cache: Dict[int, Dict[int, float]] = {}
        self._to_cache: Dict[int, Dict[int, float]] = {}
        #: Planner work counters, all ints (JSON-ready).
        self.stats: Dict[str, int] = {
            "model_nodes": len(adjacency),
            "model_edges": sum(len(out) for out in adjacency.values()),
            "dijkstra_runs": 0,
            "dijkstra_memo_hits": 0,
            "xmits_queries": 0,
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_statistics(cls, stats: BasestationStatistics) -> "NetworkModel":
        # known_nodes() already holds every endpoint of the evidence below.
        adjacency: Adjacency = {node: {} for node in stats.known_nodes()}
        for (a, b), quality in stats.link_quality.items():
            adjacency[a][b] = hop_cost(quality)
            # Radio links are roughly bidirectional; if the reverse
            # direction has no evidence, assume it exists but is weaker.
            adjacency[b].setdefault(a, hop_cost(quality * 0.8))
        for child, (parent, _when) in stats.parents.items():
            for u, v in ((child, parent), (parent, child)):
                adjacency[u].setdefault(v, hop_cost(DEFAULT_TREE_QUALITY))
        return cls(adjacency)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int, float]]) -> "NetworkModel":
        """Build directly from (src, dst, delivery-quality) triples (tests)."""
        adjacency: Adjacency = {}
        for a, b, quality in edges:
            adjacency.setdefault(a, {})[b] = hop_cost(quality)
            adjacency.setdefault(b, {})
        return cls(adjacency)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _distances_from(self, src: int) -> Dict[int, float]:
        if src not in self._from_cache:
            self.stats["dijkstra_runs"] += 1
            self._from_cache[src] = dijkstra(self._succ, src)
        else:
            self.stats["dijkstra_memo_hits"] += 1
        return self._from_cache[src]

    def _distances_to(self, dst: int) -> Dict[int, float]:
        if dst not in self._to_cache:
            self.stats["dijkstra_runs"] += 1
            self._to_cache[dst] = dijkstra(self._pred, dst)
        else:
            self.stats["dijkstra_memo_hits"] += 1
        return self._to_cache[dst]

    @cached_property
    def _pred(self) -> Adjacency:
        """The reversed graph: ``_pred[v][u]`` is the cost of edge u -> v."""
        pred: Adjacency = {node: {} for node in self._succ}
        for u, out in self._succ.items():
            for v, cost in out.items():
                pred[v][u] = cost
        return pred

    def xmits(self, src: int, dst: int) -> float:
        """Expected transmissions to move one packet from src to dst
        (``inf`` when the basestation knows no connecting path)."""
        self.stats["xmits_queries"] += 1
        if src == dst:
            return 0.0
        return self._distances_from(src).get(dst, math.inf)

    def roundtrip(self, base: int, node: int) -> float:
        """xmits(base -> node -> base): query out plus reply back."""
        return self.xmits(base, node) + self.xmits(node, base)

    def xmits_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> np.ndarray:
        """Matrix of xmits(source, target), shape (len(sources), len(targets))."""
        self.stats["xmits_queries"] += len(sources) * len(targets)
        out = np.empty((len(sources), len(targets)))
        for i, src in enumerate(sources):
            dists = self._distances_from(src)
            for j, dst in enumerate(targets):
                out[i, j] = 0.0 if src == dst else dists.get(dst, math.inf)
        return out

    def roundtrip_vector(self, base: int, targets: Sequence[int]) -> np.ndarray:
        self.stats["xmits_queries"] += len(targets)
        from_base = self._distances_from(base)
        to_base = self._distances_to(base)
        out = np.empty(len(targets))
        for j, node in enumerate(targets):
            if node == base:
                out[j] = 0.0
            else:
                out[j] = from_base.get(node, math.inf) + to_base.get(node, math.inf)
        return out

    def reachable(self, src: int, dst: int) -> bool:
        return math.isfinite(self.xmits(src, dst))

    @property
    def nodes(self) -> List[int]:
        return sorted(self._succ)
