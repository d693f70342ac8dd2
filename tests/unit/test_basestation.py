"""Unit tests for the basestation: remapping, suppression, query planning."""


from repro.core.config import ScoopConfig, ValueDomain
from repro.core.histogram import Histogram
from repro.core.messages import AttributeSummary, ReplyMessage, SummaryMessage
from repro.core.query import Query
from repro.core.storage_index import STORE_LOCAL, StorageIndex
from repro.sim.packets import Frame, FrameKind
from repro.sim.topology import perfect
from tests.conftest import build_scoop_network

DOMAIN = ValueDomain(0, 100)


def booted_network(config=None, n=6):
    topo = perfect(n)
    config = config or ScoopConfig(n_nodes=n, domain=DOMAIN, beacon_interval=5.0)
    net, base, nodes = build_scoop_network(topo, config=config)
    net.boot_all(within=2.0)
    net.run(40.0)
    return net, base, nodes


def feed_summary(base, origin, values, now, sid=-1, neighbors=((0, 0.9),)):
    block = AttributeSummary(
        attr=0,
        histogram=Histogram.from_values(values, 10),
        min_value=min(values),
        max_value=max(values),
        sum_values=sum(values),
        last_sid=sid,
    )
    summary = SummaryMessage(
        origin=origin,
        readings_since_last=len(values),
        neighbors=tuple(neighbors),
        blocks=(block,),
    )
    base.stats.ingest_summary(summary, now)


class TestRemapping:
    def test_remap_disseminates_index(self):
        net, base, nodes = booted_network()
        for origin in (1, 2, 3):
            feed_summary(base, origin, [origin * 10] * 5, net.sim.now)
        base._remap()
        assert base.index_for(0) is not None
        assert len(base.index_histories[0]) == 1
        net.run(net.sim.now + 30.0)
        # Trickle delivers the full index to every node.
        delivered = sum(
            1 for node in nodes if node.index_for(0) is not None
        )
        assert delivered >= len(nodes) - 1

    def test_similar_index_suppressed(self):
        net, base, nodes = booted_network()
        for origin in (1, 2, 3):
            feed_summary(base, origin, [origin * 10] * 5, net.sim.now)
        base._remap()
        first_sid = base.index_for(0).sid
        base._remap()  # identical statistics -> near-identical index
        assert base.remaps_suppressed == 1
        assert base.index_for(0).sid == first_sid
        assert len(base.index_histories[0]) == 1

    def test_changed_statistics_new_index(self):
        net, base, nodes = booted_network()
        feed_summary(base, 1, [10] * 5, net.sim.now)
        base._remap()
        # Node 1 drastically changes what it produces; owners must move.
        feed_summary(base, 1, [90] * 5, net.sim.now + 100)
        feed_summary(base, 2, [10] * 5, net.sim.now + 100)
        base._remap()
        assert len(base.index_histories[0]) >= 1

    def test_store_local_fallback_disseminates_sentinel(self):
        config = ScoopConfig(n_nodes=6, domain=DOMAIN, allow_store_local_fallback=True)
        net, base, nodes = booted_network(config=config)
        for origin in (1, 2, 3, 4, 5):
            feed_summary(base, origin, [50] * 5, net.sim.now)
        # no queries recorded -> store-local is free, shipping is not
        base._remap()
        assert base.index_for(0).all_owners() == {STORE_LOCAL}


class TestQueryPlanning:
    def test_node_list_query_targets_exactly(self):
        net, base, nodes = booted_network()
        q = Query(time_range=(0.0, 100.0), node_list=frozenset({2, 4}))
        assert base.plan_query(q) == {2, 4}

    def test_value_query_uses_index_owners(self):
        net, base, nodes = booted_network()
        index = StorageIndex.single_owner(
            1, DOMAIN, [2] * 50 + [3] * 51
        )
        base.install_index(index)
        base.index_histories[0].append((net.sim.now, index))
        q = Query(time_range=(net.sim.now, net.sim.now + 1), value_range=(10, 20))
        assert base.plan_query(q) == {2}
        q2 = Query(time_range=(net.sim.now, net.sim.now + 1), value_range=(40, 60))
        assert base.plan_query(q2) == {2, 3}

    def test_local_mode_nodes_added(self):
        net, base, nodes = booted_network()
        # No index history; node 1 reported sid -1 with values 10..20.
        feed_summary(base, 1, [15] * 5, net.sim.now, sid=-1)
        q = Query(time_range=(0.0, net.sim.now + 10), value_range=(10, 20))
        assert 1 in base.plan_query(q)

    def test_local_mode_respects_value_filter(self):
        net, base, nodes = booted_network()
        feed_summary(base, 1, [15] * 5, net.sim.now, sid=-1)
        q = Query(time_range=(0.0, net.sim.now + 10), value_range=(60, 70))
        assert 1 not in base.plan_query(q)

    def test_base_never_targets_itself(self):
        net, base, nodes = booted_network()
        index = StorageIndex.uniform(1, DOMAIN, 0)
        base.install_index(index)
        base.index_histories[0].append((net.sim.now, index))
        q = Query(time_range=(net.sim.now, net.sim.now + 1), value_range=(0, 100))
        assert base.plan_query(q) == set()

    def test_historical_indices_consulted(self):
        net, base, nodes = booted_network()
        old = StorageIndex.single_owner(1, DOMAIN, [2] * DOMAIN.size)
        new = StorageIndex.single_owner(2, DOMAIN, [3] * DOMAIN.size)
        base.index_histories[0].append((10.0, old))
        base.index_histories[0].append((500.0, new))
        base.install_index(new)
        # Query about the old era targets the old owner.
        q = Query(time_range=(20.0, 100.0), value_range=(5, 6))
        assert 2 in base.plan_query(q)
        # Query spanning both eras targets both.
        q2 = Query(time_range=(20.0, 600.0), value_range=(5, 6))
        assert base.plan_query(q2) >= {2, 3}


class TestQueryExecution:
    def test_zero_target_query_answered_locally(self):
        net, base, nodes = booted_network()
        from repro.sim.flash import StoredReading

        base.flash.store(StoredReading(origin=4, value=33, timestamp=50.0))
        index = StorageIndex.uniform(1, DOMAIN, 0)
        base.install_index(index)
        base.index_histories[0].append((0.0, index))
        result = base.issue_query(
            Query(time_range=(0.0, 100.0), value_range=(30, 40))
        )
        assert result.answered_locally
        assert result.closed
        assert (33, 50.0, 4) in result.readings

    def test_reply_ingestion_updates_result(self):
        net, base, nodes = booted_network()
        index = StorageIndex.single_owner(1, DOMAIN, [2] * DOMAIN.size)
        base.install_index(index)
        base.index_histories[0].append((net.sim.now, index))
        result = base.issue_query(
            Query(time_range=(0.0, net.sim.now + 10), value_range=(5, 6))
        )
        qid = result.query.query_id
        reply = ReplyMessage(query_id=qid, origin=2, readings=[(5, 1.0, 2)])
        base._ingest_reply(
            Frame(src=2, dst=0, kind=FrameKind.REPLY, payload=reply, seqno=1)
        )
        assert 2 in result.nodes_replied
        assert (5, 1.0, 2) in result.readings

    def test_reply_after_window_ignored(self):
        net, base, nodes = booted_network()
        index = StorageIndex.single_owner(1, DOMAIN, [2] * DOMAIN.size)
        base.install_index(index)
        base.index_histories[0].append((net.sim.now, index))
        result = base.issue_query(
            Query(time_range=(0.0, net.sim.now + 10), value_range=(5, 6))
        )
        net.run(net.sim.now + base.config.query_reply_window + 1.0)
        assert result.closed
        # A straggler from a node that never replied in time is ignored.
        reply = ReplyMessage(
            query_id=result.query.query_id, origin=3, readings=[(5, 1.0, 3)]
        )
        base._accept_reply(reply, from_network=True)
        assert 3 not in result.nodes_replied
        assert (5, 1.0, 3) not in result.readings

    def test_node_list_filter_applied_to_local_scan(self):
        net, base, nodes = booted_network()
        from repro.sim.flash import StoredReading

        base.flash.store(StoredReading(origin=4, value=33, timestamp=50.0))
        base.flash.store(StoredReading(origin=5, value=34, timestamp=51.0))
        result = base.issue_query(
            Query(time_range=(0.0, 100.0), node_list=frozenset({4}))
        )
        values = [v for v, _t, _p in result.readings]
        assert 33 in values and 34 not in values
