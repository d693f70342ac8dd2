"""Reference checks for the shared shortest-path search and the topology's
connectivity test.

Both are compared with brute force written here: ``dijkstra`` against a
Bellman–Ford relaxation with exact float equality (a path length is the
float sum of its weights in path order, whichever search finds it), and
``Topology.is_connected`` against the transitive closure of the links
with a finite ETX, in both directions.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.topology import OUT_OF_RANGE, dijkstra
from tests.conftest import from_loss_matrix


def bellman_ford(adjacency, source):
    dist = {source: 0.0}
    for _ in range(len(adjacency)):
        changed = False
        for u, out in adjacency.items():
            if u not in dist:
                continue
            for v, weight in out.items():
                alt = dist[u] + weight
                if alt < dist.get(v, math.inf):
                    dist[v] = alt
                    changed = True
        if not changed:
            break
    return dist


@st.composite
def weighted_digraphs(draw):
    """Random digraphs over ``0..n-1`` with positive weights. Edges avoid
    the last ``isolated`` nodes, so some nodes are always unreachable."""
    n = draw(st.integers(1, 12))
    isolated = draw(st.integers(0, 3))
    linked = st.integers(0, n - 1)
    edge = st.tuples(linked, linked, st.floats(0.1, 10.0))
    edges = draw(st.lists(edge, max_size=4 * n))
    adjacency = {node: {} for node in range(n + isolated)}
    for u, v, weight in edges:
        adjacency[u][v] = weight
    return adjacency


@settings(max_examples=200, deadline=None)
@given(adjacency=weighted_digraphs(), data=st.data())
def test_dijkstra_equals_bellman_ford(adjacency, data):
    source = data.draw(st.sampled_from(sorted(adjacency)))
    assert dijkstra(adjacency, source) == bellman_ford(adjacency, source)


def test_dijkstra_leaves_out_unreachable_nodes():
    adjacency = {0: {1: 2.0}, 1: {0: 1.0}, 2: {0: 1.0}, 3: {}}
    assert dijkstra(adjacency, 0) == {0: 0.0, 1: 2.0}
    assert dijkstra(adjacency, 3) == {3: 0.0}


def two_way_reachable_from_root(topo):
    """Brute force: the transitive closure of the links a frame *and* its
    ACK can cross (finite ``link_etx``), checked both to and from node 0."""
    n = topo.n
    reach = [
        [i == j or math.isfinite(topo.link_etx(i, j)) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return all(reach[0][i] and reach[i][0] for i in range(n))


#: Cells of a random loss matrix; out-of-range is the likeliest, so
#: one-way links and disconnected matrices are common.
loss_cells = st.sampled_from([0.0, 0.4, 0.97, OUT_OF_RANGE, OUT_OF_RANGE])


def square_matrices(n):
    row = st.lists(loss_cells, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(matrix=st.integers(1, 9).flatmap(square_matrices))
def test_is_connected_equals_brute_force(matrix):
    topo = from_loss_matrix(matrix)
    assert topo.is_connected() == two_way_reachable_from_root(topo)


def test_one_way_links_connect_nothing():
    # 0 -> 1 -> 2 -> 0 is a directed cycle, but no link is audible in
    # both directions, so no hop can be acknowledged.
    one_way = [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    topo = from_loss_matrix(one_way)
    assert not topo.is_connected()
    assert not two_way_reachable_from_root(topo)
    assert math.isinf(topo.path_etx(0, 1))
