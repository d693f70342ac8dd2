"""Network topology generation and ground-truth connectivity.

The paper's simulated topology (Section 6) consists of 62 nodes + 1
basestation where, on average, each node can communicate with ~20% of the
network, loss rates among audible pairs vary from ~25% to ~90%, and links
are slightly asymmetric. The generators here reproduce that regime, plus
regular topologies (grid, line, clique) used by the tests.

A :class:`Topology` stores the *ground truth* directed loss matrix. Nodes in
the simulation never read it directly — they estimate link quality by
snooping, as in the paper — but analytical baselines (the HASH cost model)
and experiment assertions use the ground truth.

Node 0 is by convention the basestation's attachment point (the root of the
routing tree).
"""

from __future__ import annotations

import heapq
import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Loss value meaning "out of radio range".
OUT_OF_RANGE = 1.0

#: The out-edges of a node that has no entry in an adjacency map.
_NO_EDGES: Mapping[int, float] = {}


def dijkstra(
    adjacency: Mapping[int, Mapping[int, float]], source: int
) -> Dict[int, float]:
    """Shortest-path lengths from ``source``; ``adjacency[u][v]`` is the
    weight of edge u -> v, and every weight must be positive.

    Nodes ``source`` cannot reach are absent from the result; ``source``
    itself maps to 0.0, even when ``adjacency`` has no entry for it. A
    length is the float sum of its path's weights in path order, so with
    positive weights it does not depend on the order in which equal
    candidates are explored.
    """
    dist: Dict[int, float] = {}
    best = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nbr, weight in adjacency.get(node, _NO_EDGES).items():
            if nbr in dist:
                continue
            alt = d + weight
            if alt < best.get(nbr, math.inf):
                best[nbr] = alt
                heapq.heappush(heap, (alt, nbr))
    return dist


@dataclass(eq=False)
class Topology:
    """Ground-truth radio connectivity for a simulated network.

    Attributes
    ----------
    n:
        Number of nodes (ids ``0..n-1``; node 0 is the basestation).
    loss:
        ``loss[i, j]`` is the probability that a frame transmitted by ``i``
        is *not* received by ``j`` (independent Bernoulli per frame),
        ignoring collisions. ``1.0`` means ``j`` never hears ``i``. Any
        n x n nested sequence is accepted and stored as a float64 array.
    positions:
        Optional 2-D coordinates, used by generators and for debugging.
    """

    n: int
    loss: np.ndarray
    positions: Optional[List[Tuple[float, float]]] = None
    name: str = "custom"

    def __post_init__(self) -> None:
        # np.array copies: the diagonal write below must never corrupt a
        # matrix the caller still owns.
        loss = np.array(self.loss, dtype=np.float64)
        if loss.shape != (self.n, self.n):
            raise ValueError("loss matrix must be n x n")
        np.fill_diagonal(loss, OUT_OF_RANGE)  # no self-links
        self.loss = loss
        #: path_etx's shortest-path lengths, per source
        self._etx_from: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # Connectivity queries
    # ------------------------------------------------------------------
    def audible(self, i: int, j: int) -> bool:
        """True if ``j`` can ever hear ``i``."""
        return bool(self.loss[i, j] < OUT_OF_RANGE)

    def neighbors(self, i: int) -> List[int]:
        """Nodes that can hear transmissions from ``i``."""
        return np.flatnonzero(self.loss[i] < OUT_OF_RANGE).tolist()

    def in_neighbors(self, j: int) -> List[int]:
        """Nodes whose transmissions ``j`` can hear."""
        return np.flatnonzero(self.loss[:, j] < OUT_OF_RANGE).tolist()

    def delivery(self, i: int, j: int) -> float:
        """Per-frame delivery probability from ``i`` to ``j``."""
        return 1.0 - float(self.loss[i, j])

    def mean_degree_fraction(self) -> float:
        """Average fraction of the network each node can transmit to."""
        total = int(np.count_nonzero(self.loss < OUT_OF_RANGE))
        return total / (self.n * (self.n - 1))

    # ------------------------------------------------------------------
    # Ground-truth ETX (used by analytical baselines and tests only)
    # ------------------------------------------------------------------
    def link_etx(self, i: int, j: int) -> float:
        """Expected transmissions for one acknowledged hop i -> j.

        Uses the standard ETX formula ``1 / (d_f * d_r)`` where ``d_f`` is
        the forward and ``d_r`` the reverse (ACK) delivery probability.
        """
        d_f = self.delivery(i, j)
        d_r = self.delivery(j, i)
        if d_f <= 0.0 or d_r <= 0.0:
            return math.inf
        return 1.0 / (d_f * d_r)

    def _two_way(self) -> np.ndarray:
        """``[i, j]`` is True when ``i`` and ``j`` hear each other: the
        links whose frame and ACK can both get through, exactly those
        with a finite :meth:`link_etx`."""
        audible = self.loss < OUT_OF_RANGE
        return audible & audible.T

    @cached_property
    def _etx_graph(self) -> Dict[int, Dict[int, float]]:
        """Every link with a finite :meth:`link_etx`, as adjacency dicts
        weighted by that ETX (built on first use)."""
        adjacency: Dict[int, Dict[int, float]] = {i: {} for i in range(self.n)}
        rows, cols = np.nonzero(self._two_way())
        for i, j in zip(rows.tolist(), cols.tolist()):
            adjacency[i][j] = self.link_etx(i, j)
        return adjacency

    def path_etx(self, src: int, dst: int) -> float:
        """Minimum expected transmissions over any multihop path src -> dst
        (one Dijkstra per source, memoised)."""
        if src == dst:
            return 0.0
        dists = self._etx_from.get(src)
        if dists is None:
            dists = self._etx_from[src] = dijkstra(self._etx_graph, src)
        return dists.get(dst, math.inf)

    def is_connected(self) -> bool:
        """True if every node can reach the basestation (node 0) and back.

        A hop needs its frame and its ACK to get through, so only links
        audible in both directions count. That relation is symmetric, so
        one breadth-first search from node 0 answers both directions.
        """
        two_way = self._two_way()
        reached = np.zeros(self.n, dtype=bool)
        reached[0] = True
        frontier = np.array([0])
        while frontier.size:
            frontier = np.flatnonzero(two_way[frontier].any(axis=0) & ~reached)
            reached[frontier] = True
        return bool(reached.all())


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def perfect(n: int, name: str = "perfect") -> Topology:
    """Fully connected, lossless topology (for unit tests)."""
    return Topology(n=n, loss=np.zeros((n, n)), name=name)


def line(n: int, link_loss: float = 0.0) -> Topology:
    """A 1-D chain 0 - 1 - 2 - ... - (n-1) with uniform link loss."""
    loss = np.full((n, n), OUT_OF_RANGE)
    hop = np.arange(n - 1)
    loss[hop, hop + 1] = link_loss
    loss[hop + 1, hop] = link_loss
    positions = [(float(i), 0.0) for i in range(n)]
    return Topology(n=n, loss=loss, positions=positions, name=f"line-{n}")


def grid(
    rows: int, cols: int, link_loss: float = 0.0, diagonal: bool = False
) -> Topology:
    """A 2-D lattice with 4-connectivity (8 if ``diagonal``)."""
    n = rows * cols
    loss = np.full((n, n), OUT_OF_RANGE)
    row, col = np.divmod(np.arange(n), cols)
    steps = [(0, 1), (1, 0)]
    if diagonal:
        steps += [(1, 1), (1, -1)]
    for dr, dc in steps:
        nr, nc = row + dr, col + dc
        inside = (0 <= nr) & (nr < rows) & (0 <= nc) & (nc < cols)
        a = np.flatnonzero(inside)
        b = nr[inside] * cols + nc[inside]
        loss[a, b] = link_loss
        loss[b, a] = link_loss
    positions = [(float(c), float(r)) for r in range(rows) for c in range(cols)]
    return Topology(n=n, loss=loss, positions=positions, name=f"grid-{rows}x{cols}")


def _distance_loss(
    dist: float,
    radio_range: float,
    rng: random.Random,
    loss_range: Tuple[float, float],
    asymmetry: float,
) -> Tuple[float, float]:
    """Map a distance to a (forward, reverse) loss pair.

    Real low-power radios have a *good region* close to the transmitter
    (low, stable loss) followed by a *gray region* where loss climbs
    steeply (Woo et al., SenSys'03). Routing trees are built on good-region
    links, which is what lets testbeds with "25 to about 90 percent" loss
    across audible pairs still deliver multihop traffic in ~1-2
    transmissions per hop. Directions differ by up to ``asymmetry``
    (paper: "connections are slightly asymmetric").
    """
    if dist >= radio_range:
        return OUT_OF_RANGE, OUT_OF_RANGE
    lo, hi = loss_range
    frac = dist / radio_range
    good_region = 0.45
    if frac < good_region:
        # Good region: low loss, gently rising.
        base = lo * (0.3 + 0.7 * frac / good_region)
    else:
        # Gray region: loss climbs steeply toward the range edge.
        t = (frac - good_region) / (1.0 - good_region)
        base = lo + (hi - lo) * (t ** 1.2)
    noise = rng.uniform(-0.06, 0.06)
    fwd = min(0.98, max(0.02, base + noise))
    rev = min(0.98, max(0.02, fwd + rng.uniform(-asymmetry, asymmetry)))
    return fwd, rev


def _pair_distances(positions: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Distances of every pair i < j, in ``np.triu_indices`` order.

    Each is ``math.dist``: the range test and the loss draws depend on
    exact distances, and a numpy formula rounds differently.
    """
    return np.array(
        [math.dist(p, q) for i, p in enumerate(positions) for q in positions[i + 1 :]],
        dtype=np.float64,
    )


def _pair_loss(
    n: int,
    distances: np.ndarray,
    radio_range: float,
    rng: random.Random,
    loss_range: Tuple[float, float],
    asymmetry: float,
) -> np.ndarray:
    """The loss matrix of pairs at ``distances`` (see :func:`_pair_distances`).

    Only pairs within ``radio_range`` draw from ``rng``, in ascending
    (i, j > i) order; every other pair stays out of range.
    """
    loss = np.full((n, n), OUT_OF_RANGE)
    near = np.flatnonzero(distances < radio_range)
    rows, cols = np.triu_indices(n, k=1)
    i, j = rows[near], cols[near]
    pairs = [
        _distance_loss(dist, radio_range, rng, loss_range, asymmetry)
        for dist in distances[near].tolist()
    ]
    fwd_rev = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    loss[i, j] = fwd_rev[:, 0]
    loss[j, i] = fwd_rev[:, 1]
    return loss


def random_geometric(
    n: int,
    seed: int = 0,
    target_degree_fraction: float = 0.20,
    loss_range: Tuple[float, float] = (0.25, 0.90),
    asymmetry: float = 0.10,
    area: float = 100.0,
    max_attempts: int = 40,
) -> Topology:
    """Random geometric topology tuned to the paper's simulated network.

    Nodes are placed uniformly at random in a square; the radio range is
    searched so that each node can, on average, communicate with
    ``target_degree_fraction`` of the network (paper: ~20%). Audible links
    get loss rates in ``loss_range`` (paper: ~25%..~90%), slightly
    asymmetric. The generator retries until the topology is connected.
    """
    rng = random.Random(seed)
    for attempt in range(max_attempts):
        positions = [(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(n)]
        # Put the basestation near a corner, as in a building deployment
        # where the root sits at one end of the floor.
        positions[0] = (area * 0.08, area * 0.08)
        distances = _pair_distances(positions)
        # Binary-search the radio range for the target mean degree.
        lo_r, hi_r = 1e-3, area * math.sqrt(2)
        radio_range = area / 3
        for _ in range(30):
            radio_range = (lo_r + hi_r) / 2
            in_range = 2 * int(np.count_nonzero(distances < radio_range))
            degree = in_range / (n * (n - 1))
            if degree < target_degree_fraction:
                lo_r = radio_range
            else:
                hi_r = radio_range
        loss = _pair_loss(n, distances, radio_range, rng, loss_range, asymmetry)
        topo = Topology(
            n=n,
            loss=loss,
            positions=positions,
            name=f"geo-{n}-seed{seed}" + (f"-try{attempt}" if attempt else ""),
        )
        if topo.is_connected():
            return topo
    raise RuntimeError(
        f"could not generate a connected topology for n={n}, seed={seed}"
    )


def indoor_testbed(
    n: int = 63,
    seed: int = 7,
    loss_range: Tuple[float, float] = (0.25, 0.90),
    asymmetry: float = 0.10,
) -> Topology:
    """A testbed-like topology: nodes clustered in 'rooms' along a floor.

    Approximates the paper's 62-node (plus basestation) indoor deployment
    "spread out across one floor of a large office building": clusters of
    3-5 nodes (offices) along a long rectangle, denser connectivity within
    a cluster, lossier links across clusters.
    """
    rng = random.Random(seed)
    width, height = 200.0, 40.0
    n_rooms = max(2, n // 4)
    room_centers = [
        (width * (k + 0.5) / n_rooms, rng.uniform(height * 0.2, height * 0.8))
        for k in range(n_rooms)
    ]
    positions: List[Tuple[float, float]] = [(2.0, height / 2)]  # basestation
    k = 0
    while len(positions) < n:
        cx, cy = room_centers[k % n_rooms]
        positions.append((cx + rng.uniform(-6, 6), cy + rng.uniform(-6, 6)))
        k += 1
    radio_range = width / 6.5
    distances = _pair_distances(positions)
    loss = _pair_loss(n, distances, radio_range, rng, loss_range, asymmetry)
    topo = Topology(n=n, loss=loss, positions=positions, name=f"testbed-{n}-seed{seed}")
    if not topo.is_connected():
        # Fall back to a connected random-geometric instance with the same
        # statistical profile rather than failing a benchmark run — loudly,
        # and under a name that says what actually ran, so a trial labelled
        # "testbed" can never silently export metrics for a geo-* layout.
        warnings.warn(
            f"indoor_testbed(n={n}, seed={seed}) generated a disconnected "
            "testbed; falling back to a random-geometric layout",
            RuntimeWarning,
            stacklevel=2,
        )
        fallback = random_geometric(
            n, seed=seed, loss_range=loss_range, asymmetry=asymmetry
        )
        return Topology(
            n=fallback.n,
            loss=fallback.loss,
            positions=fallback.positions,
            name=f"testbed-fallback-{fallback.name}",
        )
    return topo


def near_square_grid(n: int, link_loss: float = 0.0) -> Topology:
    """The most square ``rows × cols`` lattice with exactly ``n`` nodes.

    Rows/cols are the divisor pair of ``n`` closest to a square (63 →
    7×9); a prime ``n`` degenerates to the 1×n line, which is what a
    prime-sized lattice is.
    """
    rows = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            rows = d
    return grid(rows, n // rows, link_loss=link_loss)


def degrade(topo: Topology, extra_loss: float) -> Topology:
    """``topo`` with every audible link suffering ``extra_loss`` more
    independent per-frame loss: ``loss' = 1 - (1-loss)(1-extra_loss)``.

    Out-of-range pairs stay out of range and every audible pair stays
    audible (for ``extra_loss < 1``), so a connected topology remains
    connected — its links just cost more transmissions. This is the
    loss-sweep knob: one scalar degrades a whole generated topology
    without re-rolling its geometry.
    """
    if not 0.0 <= extra_loss < 1.0:
        raise ValueError(f"extra_loss must be in [0, 1), got {extra_loss}")
    if extra_loss == 0.0:
        return topo
    loss = topo.loss
    degraded = np.where(
        loss >= OUT_OF_RANGE, loss, 1.0 - (1.0 - loss) * (1.0 - extra_loss)
    )
    return Topology(
        n=topo.n,
        loss=degraded,
        positions=topo.positions,
        name=f"{topo.name}+loss{extra_loss:g}",
    )


def from_loss_matrix(loss: Sequence[Sequence[float]], name: str = "custom") -> Topology:
    """Build a topology from an explicit directed loss matrix."""
    return Topology(n=len(loss), loss=loss, name=name)
