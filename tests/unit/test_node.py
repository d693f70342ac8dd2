"""Unit tests for ScoopNode: sampling, batching, routing rules, queries.

These run tiny fully-connected lossless networks so protocol behaviour is
deterministic and assertions can be exact.
"""

import pytest

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
from repro.core.messages import DataMessage, QueryMessage
from repro.core.node import BATCH_SIZE, MAX_DATA_HOPS, SUMMARY_NEIGHBORS
from repro.core.storage_index import STORE_LOCAL, StorageIndex
from repro.sim.topology import perfect
from repro.workloads.synthetic import UniqueWorkload
from tests.conftest import build_scoop_network

DOMAIN = ValueDomain(0, 100)


def install_index(net, base, nodes, owner_by_value, sid=1):
    """Install a storage index directly on every node (bypass Trickle)."""
    index = StorageIndex.single_owner(sid, DOMAIN, owner_by_value)
    base.install_index(index)
    base.index_histories[0].append((net.sim.now, index))
    base._sid_counter = sid
    for node in nodes:
        node.install_index(index)
    return index


def stabilised(config=None, n=6, topo=None):
    topo = topo or perfect(n)
    config = config or ScoopConfig(n_nodes=topo.n, domain=DOMAIN, beacon_interval=5.0)
    net, base, nodes = build_scoop_network(topo, config=config)
    net.boot_all(within=2.0)
    net.run(60.0)
    assert net.tree_converged()
    return net, base, nodes


class TestLocalStorageBeforeIndex:
    def test_stores_locally_without_index(self):
        net, base, nodes = stabilised()
        node = nodes[0]
        node.source = lambda n, t, a: 42
        node.sampling = True
        node._sample()
        assert len(node.flash) == 1
        assert node.flash.all_readings()[0].value == 42

    def test_tracker_records_unowned(self):
        net, base, nodes = stabilised()
        node = nodes[0]
        node.source = lambda n, t, a: 13
        node.sampling = True
        node._sample()
        assert net.tracker.readings[-1].intended_owner is None
        assert net.tracker.storage_success_rate() == 1.0


class TestDataSource:
    def test_start_sampling_without_source_fails_fast(self):
        net, base, nodes = stabilised()
        with pytest.raises(RuntimeError, match="no data source"):
            nodes[0].start_sampling()

    def test_single_attribute_workload_fails_on_a_second_attribute(self):
        attributes = (
            AttributeSpec("a", DOMAIN),
            AttributeSpec("b", ValueDomain(0, 10)),
        )
        config = ScoopConfig(
            n_nodes=6, domain=DOMAIN, attributes=attributes, beacon_interval=5.0
        )
        net, base, nodes = stabilised(config=config)
        node = nodes[0]
        node.source = UniqueWorkload(DOMAIN, 6).sample_attr
        node.sampling = True
        with pytest.raises(ValueError, match="single-attribute"):
            node._sample()


class TestRoutingRules:
    def test_rule2_owner_stores_immediately(self):
        net, base, nodes = stabilised()
        install_index(net, base, nodes, [1] * DOMAIN.size)
        node = nodes[0]  # node id 1 owns everything
        node.source = lambda n, t, a: 50
        node.sampling = True
        node._sample()
        assert len(node.flash) == 1

    def test_rule3_neighbor_shortcut(self):
        net, base, nodes = stabilised()
        install_index(net, base, nodes, [3] * DOMAIN.size)
        producer = nodes[0]  # node 1
        producer.route_data(DataMessage(readings=[(5, 0.0, 1)], owner=3, sid=1))
        net.run(net.sim.now + 2.0)
        owner = nodes[2]  # node id 3
        assert len(owner.flash) == 1

    def test_rule4_base_stores_fallback(self):
        net, base, nodes = stabilised()
        # Owner 99 does not exist; packets climb to the base and stay there.
        msg = DataMessage(readings=[(5, 0.0, 1)], owner=99, sid=1, force_base=True)
        nodes[0].route_data(msg)
        net.run(net.sim.now + 3.0)
        assert len(base.flash) == 1

    def test_rule1_newer_index_rewrites(self):
        net, base, nodes = stabilised()
        install_index(net, base, nodes, [2] * DOMAIN.size, sid=1)
        # Node 5 has a NEWER index mapping everything to node 5.
        newer = StorageIndex.single_owner(2, DOMAIN, [5] * DOMAIN.size)
        nodes[4].install_index(newer)  # node id 5
        # Producer (node 1, old index) thinks owner is 2; ships via radio.
        nodes[0].route_data(DataMessage(readings=[(9, 0.0, 1)], owner=5, sid=0))
        net.run(net.sim.now + 3.0)
        # Whoever got it, the reading must be stored somewhere.
        stored = sum(len(m.flash) for m in [base] + nodes)
        assert stored >= 1

    def test_hop_budget_forces_base(self, small_config):
        net, base, nodes = stabilised(config=small_config)
        install_index(net, base, nodes, [4] * DOMAIN.size)
        msg = DataMessage(
            readings=[(5, 0.0, 1)],
            owner=99,  # unreachable owner
            sid=1,
            hops=MAX_DATA_HOPS,
        )
        nodes[0].route_data(msg)
        net.run(net.sim.now + 3.0)
        assert len(base.flash) == 1

    def test_orphan_stores_locally(self):
        config = ScoopConfig(n_nodes=3, domain=DOMAIN)
        topo = perfect(3)
        net, base, nodes = build_scoop_network(topo, config=config)
        node = nodes[0]
        node.booted = True  # booted but no tree yet
        node.install_index(StorageIndex.single_owner(1, DOMAIN, [99] * DOMAIN.size))
        node.route_data(DataMessage(readings=[(5, 0.0, 1)], owner=99, sid=1))
        assert len(node.flash) == 1


class TestBatching:
    def test_batch_fills_to_capacity(self, small_config):
        net, base, nodes = stabilised(config=small_config)
        install_index(net, base, nodes, [3] * DOMAIN.size)
        producer = nodes[0]
        for _ in range(BATCH_SIZE - 1):
            producer._add_to_batch((5, net.sim.now, 1), 3)
            assert producer._batches[0].readings  # still buffered
        producer._add_to_batch((5, net.sim.now, 1), 3)
        assert not producer._batches[0].readings  # flushed at BATCH_SIZE

    def test_owner_change_flushes(self, small_config):
        net, base, nodes = stabilised(config=small_config)
        install_index(net, base, nodes, [3] * DOMAIN.size)
        producer = nodes[0]
        producer._add_to_batch((5, net.sim.now, 1), 3)
        producer._add_to_batch((6, net.sim.now, 1), 4)  # different owner
        assert producer._batches[0].owner == 4
        assert len(producer._batches[0].readings) == 1

    def test_timeout_flushes(self, small_config):
        net, base, nodes = stabilised(config=small_config)
        install_index(net, base, nodes, [3] * DOMAIN.size)
        producer = nodes[0]
        producer._add_to_batch((5, net.sim.now, 1), 3)
        net.run(net.sim.now + small_config.batch_flush_timeout + 1.0)
        assert not producer._batches[0].readings
        net.run(net.sim.now + 2.0)
        assert len(nodes[2].flash) == 1  # arrived at owner 3

    def test_stop_sampling_flushes(self, small_config):
        net, base, nodes = stabilised(config=small_config)
        install_index(net, base, nodes, [3] * DOMAIN.size)
        producer = nodes[0]
        producer.source = lambda n, t, a: 5
        producer.sampling = True
        producer._add_to_batch((5, net.sim.now, 1), 3)
        producer.stop_sampling()
        assert not producer._batches[0].readings


class TestOwnerChoice:
    def test_store_local_sentinel_means_self(self):
        net, base, nodes = stabilised()
        index = StorageIndex.uniform(1, DOMAIN, STORE_LOCAL)
        nodes[0].install_index(index)
        assert nodes[0]._choose_owner(50) == 1

    def test_prefers_self_in_owner_set(self):
        net, base, nodes = stabilised()
        index = StorageIndex(1, DOMAIN, [(1, 4)] * DOMAIN.size)
        nodes[0].install_index(index)  # node id 1
        assert nodes[0]._choose_owner(10) == 1

    def test_prefers_reachable_owner(self):
        net, base, nodes = stabilised()
        index = StorageIndex(1, DOMAIN, [(4, 5)] * DOMAIN.size)
        nodes[1].install_index(index)  # node id 2, hears everyone
        assert nodes[1]._choose_owner(10) in (4, 5)


class TestSummaries:
    def test_summary_carries_recent_statistics(self):
        net, base, nodes = stabilised()
        node = nodes[0]
        for i, v in enumerate((10, 20, 30)):
            node._recent_by_attr[0].add(float(i), v)
        node.readings_since_summary = 3
        summary = node._build_summary()
        (block,) = summary.blocks
        assert (block.attr, block.last_sid) == (0, -1)
        assert block.min_value == 10
        assert block.max_value == 30
        assert block.sum_values == 60
        assert summary.readings_since_last == 3
        assert block.histogram is not None

    def test_empty_summary_has_no_histogram(self):
        net, base, nodes = stabilised()
        summary = nodes[0]._build_summary()
        assert summary.blocks[0].histogram is None

    def test_summary_reaches_base(self):
        net, base, nodes = stabilised()
        node = nodes[0]
        node._recent_by_attr[0].add(0.0, 55)
        node._send_summary()
        net.run(net.sim.now + 2.0)
        assert 1 in base.stats.records

    def test_summary_lists_neighbors_sorted(self):
        net, base, nodes = stabilised()
        node = nodes[0]
        node._recent_by_attr[0].add(0.0, 5)
        summary = node._build_summary()
        qualities = [q for _n, q in summary.neighbors]
        assert qualities == sorted(qualities, reverse=True)
        assert len(summary.neighbors) <= SUMMARY_NEIGHBORS


class TestQueryHandling:
    def _query(self, bitmap, t_hi=1000.0, value_range=(0, 100), qid=901):
        return QueryMessage(
            query_id=qid,
            bitmap=frozenset(bitmap),
            time_range=(0.0, t_hi),
            value_range=value_range,
            issued_at=0.0,
        )

    def test_targeted_node_answers(self):
        net, base, nodes = stabilised()
        node = nodes[0]
        node.flash.store(
            __import__(
                "repro.sim.flash", fromlist=["StoredReading"]
            ).StoredReading(origin=1, value=50, timestamp=10.0)
        )
        query = self._query({1})
        base._open_queries[901] = __import__(
            "repro.core.query", fromlist=["QueryResult"]
        ).QueryResult(
            query=__import__("repro.core.query", fromlist=["Query"]).Query(
                time_range=(0.0, 1000.0), value_range=(0, 100), query_id=901
            ),
            nodes_targeted={1},
        )
        node._handle_query_frame_for_test = None
        from repro.sim.packets import Frame, FrameKind

        node.on_receive(
            Frame(src=0, dst=-1, kind=FrameKind.QUERY, payload=query, seqno=1)
        )
        net.run(net.sim.now + 8.0)
        result = base._open_queries.get(901) or base.query_log[-1]
        assert 1 in result.nodes_replied
        assert (50, 10.0, 1) in result.readings

    def test_untargeted_node_does_not_answer(self):
        net, base, nodes = stabilised()
        from repro.sim.packets import Frame, FrameKind

        query = self._query({3}, qid=902)
        spy = nodes[0]
        spy.on_receive(
            Frame(src=0, dst=-1, kind=FrameKind.QUERY, payload=query, seqno=1)
        )
        assert 902 in spy._queries_heard

    def test_duplicate_queries_suppressed(self):
        net, base, nodes = stabilised()
        from repro.sim.packets import Frame, FrameKind

        query = self._query({1}, qid=903)
        node = nodes[0]
        for seq in (1, 2):
            node.on_receive(
                Frame(src=0, dst=-1, kind=FrameKind.QUERY, payload=query, seqno=seq)
            )
        assert node._queries_heard[903] == 2  # counted, not re-answered
