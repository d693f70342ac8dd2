"""Unit tests for the link estimator and routing-tree service."""

import math

from repro.sim.kernel import Simulator
from repro.sim.linkest import LinkEstimator
from repro.sim.mote import Mote
from repro.sim.network import Network
from repro.sim.routing_tree import BeaconPayload, RoutingTree
from repro.sim.topology import random_geometric


class TestLinkEstimator:
    def test_perfect_sequence_gives_quality_one(self):
        est = LinkEstimator()
        for seq in range(1, 11):
            est.hear(5, seq, now=float(seq))
        assert est.quality(5) > 0.95

    def test_gaps_reduce_quality(self):
        est = LinkEstimator()
        for seq in (1, 3, 5, 7, 9):  # every other packet missed
            est.hear(5, seq, now=float(seq))
        assert 0.3 < est.quality(5) < 0.8

    def test_unknown_neighbor_zero_quality(self):
        est = LinkEstimator()
        assert est.quality(9) == 0.0
        assert math.isinf(est.etx(9))

    def test_etx_is_inverse_square(self):
        est = LinkEstimator()
        for seq in range(1, 40):
            est.hear(1, seq, now=float(seq))
        quality = est.quality(1)
        assert est.etx(1) == 1.0 / (quality * quality)

    def test_silence_eviction(self):
        est = LinkEstimator(silence_timeout=10.0)
        est.hear(1, 1, now=0.0)
        est.hear(2, 1, now=9.0)
        est.expire(now=15.0)
        assert not est.knows(1)
        assert est.knows(2)

    def test_table_capacity_evicts_worst(self):
        est = LinkEstimator(max_neighbors=3)
        # Three good neighbors.
        for nbr in (1, 2, 3):
            for seq in range(1, 6):
                est.hear(nbr, seq, now=float(seq))
        # One with terrible quality (big gaps) - then a new arrival.
        est.hear(4, 100, now=6.0)
        est.hear(4, 200, now=7.0)  # gap of 99
        est.hear(5, 1, now=8.0)
        assert len(est) == 3
        assert not est.knows(4)  # the worst got evicted

    def test_best_neighbors_sorted(self):
        est = LinkEstimator()
        for seq in range(1, 10):
            est.hear(1, seq, now=float(seq))  # perfect
        for seq in (1, 4, 7):
            est.hear(2, seq, now=float(seq))  # gappy
        ranked = est.best_neighbors(2)
        assert [n for n, _ in ranked] == [1, 2]

    def test_decay_adapts_to_improvement(self):
        est = LinkEstimator(decay=0.9)
        for seq in (1, 10, 20):  # terrible
            est.hear(7, seq, now=float(seq))
        bad = est.quality(7)
        for seq in range(21, 70):  # now perfect
            est.hear(7, seq, now=float(seq))
        assert est.quality(7) > bad


def make_tree(node_id, sim=None, is_root=False, **kw):
    sim = sim or Simulator()
    est = LinkEstimator()
    # Give the estimator perfect knowledge of a few neighbors.
    for nbr in (0, 1, 2, 3, 4):
        if nbr != node_id:
            for seq in range(1, 8):
                est.hear(nbr, seq, now=float(seq))
    return RoutingTree(node_id, sim, est, is_root=is_root, **kw), sim


class TestRoutingTree:
    def test_root_has_zero_cost_no_parent(self):
        tree, _ = make_tree(0, is_root=True)
        assert tree.joined
        assert tree.path_etx == 0.0
        assert tree.parent is None

    def test_picks_cheapest_advertised_parent(self):
        tree, _ = make_tree(5)
        tree.on_beacon(1, BeaconPayload(path_etx=5.0, parent=0))
        tree.on_beacon(2, BeaconPayload(path_etx=1.0, parent=0))
        assert tree.parent == 2

    def test_refuses_child_as_parent(self):
        tree, _ = make_tree(5)
        tree.on_beacon(1, BeaconPayload(path_etx=0.5, parent=5))  # loop!
        assert tree.parent is None

    def test_hysteresis_keeps_current_parent(self):
        tree, _ = make_tree(5, switch_threshold=2.0)
        tree.on_beacon(1, BeaconPayload(path_etx=3.0, parent=0))
        first = tree.parent
        tree.on_beacon(2, BeaconPayload(path_etx=2.5, parent=0))  # marginally better
        assert tree.parent == first

    def test_switches_on_big_improvement(self):
        tree, _ = make_tree(5, switch_threshold=0.5)
        tree.on_beacon(1, BeaconPayload(path_etx=10.0, parent=0))
        tree.on_beacon(2, BeaconPayload(path_etx=1.0, parent=0))
        assert tree.parent == 2
        assert tree.parent_changes == 2

    def test_stale_parent_dropped(self):
        tree, sim = make_tree(5, beacon_interval=1.0, parent_timeout_beacons=2.0)
        tree.on_beacon(1, BeaconPayload(path_etx=1.0, parent=0))
        assert tree.parent == 1
        sim.run(10.0)  # way past timeout
        tree.on_beacon(2, BeaconPayload(path_etx=5.0, parent=0))
        assert tree.parent == 2

    def test_cycle_cost_ceiling(self):
        tree, _ = make_tree(5)
        tree.on_beacon(
            1, BeaconPayload(path_etx=RoutingTree.MAX_PATH_ETX + 1, parent=0)
        )
        assert tree.parent is None

    def test_neighbor_parents_tracked(self):
        tree, _ = make_tree(5)
        tree.on_beacon(3, BeaconPayload(path_etx=4.0, parent=5))
        assert tree.sender_is_child(3)
        tree.on_beacon(3, BeaconPayload(path_etx=4.0, parent=2))
        assert not tree.sender_is_child(3)


class TestDescendants:
    def test_uplink_learning(self):
        tree, _ = make_tree(1)
        tree.note_uplink(origin=9, via_child=3)
        assert tree.in_descendants(9)
        assert tree.next_hop_down(9) == 3
        assert tree.in_descendants(3)

    def test_origin_header_learning(self):
        tree, _ = make_tree(1)
        tree.note_origin_header(origin=7, origin_parent=1)
        assert tree.next_hop_down(7) == 7  # direct child

    def test_header_for_other_parent_ignored(self):
        tree, _ = make_tree(1)
        tree.note_origin_header(origin=7, origin_parent=2)
        assert not tree.in_descendants(7)

    def test_capacity_evicts_lru(self):
        tree, _ = make_tree(1, max_descendants=3)
        for origin in (10, 11, 12, 13):
            tree.note_uplink(origin=origin, via_child=2)
        assert not tree.in_descendants(10)
        assert tree.in_descendants(13)

    def test_forget_descendant(self):
        tree, _ = make_tree(1)
        tree.note_uplink(origin=9, via_child=3)
        tree.forget_descendant(9)
        assert tree.next_hop_down(9) is None

    def test_self_never_a_descendant(self):
        tree, _ = make_tree(1)
        tree.note_uplink(origin=1, via_child=2)
        assert not tree.in_descendants(1)

    def test_neighbor_list_from_estimator(self):
        tree, _ = make_tree(1)
        assert set(tree.neighbor_list()) == {0, 2, 3, 4}
        assert tree.in_neighbor_list(2)
        assert not tree.in_neighbor_list(99)


#: Each node's parent, parent changes and parent candidates at the end of
#: the pinned churning-tree run, ten nodes per line.
# fmt: off
PINNED_PARENTS = [
    None, 4, 32, 23, 0, 7, 21, 2, 23, 22,
    2, 23, 0, 22, 23, 25, 22, 11, 2, 32,
    21, 2, 32, 4, 23, 36, 11, 4, 6, 22,
    2, 20, 0, 25, 23, 32, 34, 2, 32, 32,
]
PINNED_PARENT_CHANGES = [
    0, 116, 137, 13, 103, 64, 152, 157, 139, 147,
    119, 166, 98, 137, 134, 135, 127, 108, 118, 37,
    102, 177, 163, 116, 139, 122, 80, 167, 78, 136,
    169, 149, 92, 89, 25, 134, 72, 87, 134, 169,
]
PINNED_CANDIDATES = [
    0, 23, 17, 7, 16, 17, 27, 20, 17, 20,
    16, 27, 13, 25, 20, 18, 18, 16, 17, 11,
    18, 24, 28, 16, 19, 18, 13, 21, 16, 22,
    23, 25, 11, 14, 8, 16, 13, 17, 16, 21,
]
# fmt: on


class TestGoldenRouting:
    def test_churning_tree_is_pinned(self):
        """40 motes at mean audible degree 19.5 against a 6-entry link
        table, beaconing every 2 s, with node 5 down from 30 s to 60 s.
        The run makes 16,951 link-table inserts, 252 candidate timeouts,
        4 silence expiries, 699 loop drops and 4,607 parent changes.
        Every pinned value is an integer, so the pin holds on every
        interpreter; a change to link estimation, parent selection or
        their timeouts moves some of them."""
        topo = random_geometric(40, seed=3, target_degree_fraction=0.5)
        net = Network(topo, seed=5)
        for i in range(topo.n):
            net.add_mote(
                Mote(
                    i,
                    net.sim,
                    net.radio,
                    is_root=(i == 0),
                    beacon_interval=2.0,
                    neighbor_silence_timeout=20.0,
                    max_neighbors=6,
                )
            )
        net.boot_all(within=2.0)
        net.sim.schedule_at(30.0, net.fail_node, 5)
        net.sim.schedule_at(60.0, net.revive_node, 5)
        net.run(90.0)

        motes = [net.motes[i] for i in range(topo.n)]
        assert [m.tree.parent for m in motes] == PINNED_PARENTS
        assert [m.tree.parent_changes for m in motes] == PINNED_PARENT_CHANGES
        assert sum(PINNED_PARENT_CHANGES) == 4607
        assert [len(m.tree._candidates) for m in motes] == PINNED_CANDIDATES
        assert [len(m.linkest) for m in motes] == [6] * topo.n
