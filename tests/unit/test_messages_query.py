"""Unit tests for message payloads, frames and query objects."""

import pytest

from repro.baselines.hash_static import AnalyticalHashModel
from repro.baselines.local import LocalBasestation
from repro.core.basestation import Basestation
from repro.core.config import ScoopConfig, ValueDomain
from repro.core.messages import (
    DataMessage,
    MappingChunk,
    QueryMessage,
    ReplyMessage,
    bitmap_wire_bytes,
)
from repro.core.query import Query, QueryResult
from repro.sim.network import Network
from repro.sim.packets import (
    ACK_BYTES,
    BROADCAST,
    HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    Frame,
    FrameKind,
)
from repro.sim.topology import perfect
from repro.workloads import make_workload
from repro.workloads.queries import QueryPlanConfig


class TestFrames:
    def test_size_includes_header(self):
        msg = DataMessage(readings=[(1, 0.0, 2)], owner=3, sid=1)
        frame = Frame(src=1, dst=2, kind=FrameKind.DATA, payload=msg)
        assert frame.size_bytes() == HEADER_BYTES + msg.wire_bytes()

    def test_payload_capped_at_tos_msg(self):
        msg = DataMessage(readings=[(1, 0.0, 2)] * 20, owner=3, sid=1)
        frame = Frame(src=1, dst=2, kind=FrameKind.DATA, payload=msg)
        assert frame.size_bytes() == HEADER_BYTES + MAX_PAYLOAD_BYTES

    def test_ack_size_fixed(self):
        frame = Frame(src=1, dst=2, kind=FrameKind.ACK, payload=None)
        assert frame.size_bytes() == ACK_BYTES

    def test_origin_defaults_to_src(self):
        frame = Frame(src=7, dst=2, kind=FrameKind.BEACON, payload=None)
        assert frame.origin == 7

    def test_forward_preserves_origin_decrements_ttl(self):
        frame = Frame(
            src=1,
            dst=2,
            kind=FrameKind.SUMMARY,
            payload=None,
            origin=9,
            origin_parent=4,
            ttl=10,
        )
        fwd = frame.copy_for_forward(src=2, dst=3, seqno=77)
        assert fwd.origin == 9 and fwd.origin_parent == 4
        assert fwd.src == 2 and fwd.dst == 3
        assert fwd.ttl == 9
        assert fwd.frame_id != frame.frame_id

    def test_broadcast_flag(self):
        assert Frame(src=1, dst=BROADCAST, kind=FrameKind.QUERY).is_broadcast()

    def test_payload_without_wire_bytes_rejected(self):
        frame = Frame(src=1, dst=2, kind=FrameKind.DATA, payload=object())
        with pytest.raises(TypeError):
            frame.size_bytes()


class TestPayloads:
    def test_mapping_chunk_bounds(self):
        MappingChunk(sid=1, index=0, total=1, entries=())
        with pytest.raises(ValueError):
            MappingChunk(sid=1, index=2, total=2, entries=())

    def test_query_matches_value_and_time(self):
        q = QueryMessage(
            query_id=1,
            bitmap=frozenset({2}),
            time_range=(10.0, 20.0),
            value_range=(5, 9),
            issued_at=20.0,
        )
        assert q.matches(7, 15.0)
        assert not q.matches(7, 25.0)
        assert not q.matches(4, 15.0)

    def test_query_node_filter(self):
        q = QueryMessage(
            query_id=1,
            bitmap=frozenset({2, 3}),
            time_range=(0.0, 50.0),
            value_range=None,
            issued_at=50.0,
            node_filter=frozenset({3}),
        )
        assert q.matches(1, 10.0, producer=3)
        assert not q.matches(1, 10.0, producer=2)

    def test_reply_wire_grows_with_readings(self):
        small = ReplyMessage(query_id=1, origin=2, readings=[])
        big = ReplyMessage(query_id=1, origin=2, readings=[(1, 0.0, 2)] * 5)
        assert big.wire_bytes() > small.wire_bytes()


class TestBitmapWidth:
    """The query bitmap is derived from the configured network capacity:
    ceil(max_network_size / 8) bytes, consistently across policies."""

    def test_bitmap_bytes_from_capacity(self):
        for capacity, expected in ((64, 8), (128, 16), (200, 25), (256, 32)):
            assert bitmap_wire_bytes(capacity) == expected
            config = ScoopConfig(max_network_size=capacity)
            assert config.query_bitmap_bytes == expected
        with pytest.raises(ValueError):
            bitmap_wire_bytes(0)

    def test_population_beyond_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScoopConfig(n_nodes=129)  # paper default capacity is 128
        config = ScoopConfig(n_nodes=200, max_network_size=256)
        assert config.query_bitmap_bytes == 32
        with pytest.raises(ValueError):
            ScoopConfig(max_network_size=1)

    def test_query_wire_bytes_scale_with_bitmap(self):
        def query(bitmap_bytes, node_filter=None):
            return QueryMessage(
                query_id=1,
                bitmap=frozenset({1, 2}),
                time_range=(0.0, 10.0),
                value_range=(0, 5),
                issued_at=10.0,
                node_filter=node_filter,
                bitmap_bytes=bitmap_bytes,
            )

        # bitmap + qid(2) + time range(8) + value range(4)
        assert query(16).wire_bytes() == 16 + 14
        assert query(32).wire_bytes() == 32 + 14
        # a node filter is a second bitmap of the same width
        assert query(32, node_filter=frozenset({2})).wire_bytes() == 2 * 32 + 14

    def test_bitmap_capacity_enforced_on_node_ids(self):
        def query(node, bitmap_bytes):
            return QueryMessage(
                query_id=1,
                bitmap=frozenset({node}),
                time_range=(0.0, 10.0),
                value_range=None,
                issued_at=10.0,
                bitmap_bytes=bitmap_bytes,
            )

        with pytest.raises(ValueError):
            query(200, bitmap_bytes=16)  # bit 200 of a 128-bit map
        assert query(200, bitmap_bytes=32).wire_bytes() == 32 + 14


class TestQueryPricingAudit:
    """SCOOP and LOCAL basestations price the same query identically
    from the deployment capacity; the analytical HASH model accepts the
    widened capacity too."""

    def _issued_query(self, base_cls, capacity):
        config = ScoopConfig(
            n_nodes=8, domain=ValueDomain(0, 20), max_network_size=capacity
        )
        net = Network(perfect(8), seed=1)
        base = base_cls(net.sim, net.radio, config=config)
        net.add_mote(base)
        sent = []
        original = base.broadcast
        base.broadcast = lambda kind, payload, **kw: (
            sent.append(payload),
            original(kind, payload, **kw),
        )
        base.issue_query(Query(time_range=(0.0, 10.0), node_list=frozenset({1, 2, 3})))
        return next(m for m in sent if isinstance(m, QueryMessage))

    @pytest.mark.parametrize("capacity,bitmap", [(128, 16), (256, 32)])
    def test_policies_price_queries_consistently(self, capacity, bitmap):
        scoop_msg = self._issued_query(Basestation, capacity)
        local_msg = self._issued_query(LocalBasestation, capacity)
        assert scoop_msg.bitmap_bytes == bitmap
        assert local_msg.bitmap_bytes == bitmap
        # node-list query: target bitmap + filter bitmap + fixed fields
        assert scoop_msg.wire_bytes() == 2 * bitmap + 14
        assert scoop_msg.wire_bytes() == local_msg.wire_bytes()

    def test_hash_analytical_accepts_widened_capacity(self):
        config = ScoopConfig(n_nodes=8, domain=ValueDomain(0, 20), max_network_size=256)
        topo = perfect(8)
        workload = make_workload("gaussian", config.domain, 8, seed=1)
        model = AnalyticalHashModel(topo, config)
        estimate = model.estimate(workload, QueryPlanConfig(), duration=60.0)
        assert estimate.total > 0


class TestQueryObjects:
    def test_valid_value_query(self):
        q = Query(time_range=(0.0, 10.0), value_range=(1, 5))
        assert q.node_list is None

    def test_node_list_query(self):
        q = Query(time_range=(0.0, 10.0), node_list=frozenset({1, 2}))
        assert q.value_range is None

    def test_unique_ids(self):
        a = Query(time_range=(0.0, 1.0))
        b = Query(time_range=(0.0, 1.0))
        assert a.query_id != b.query_id

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            Query(time_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            Query(time_range=(0.0, 1.0), value_range=(1, 2), node_list=frozenset({1}))
        with pytest.raises(ValueError):
            Query(time_range=(0.0, 1.0), value_range=(5, 2))
        with pytest.raises(ValueError):
            Query(time_range=(0.0, 1.0), node_list=frozenset())


class TestQueryResult:
    def _result(self):
        return QueryResult(
            query=Query(time_range=(0.0, 10.0), value_range=(0, 5)),
            nodes_targeted={1, 2},
        )

    def test_dedup_on_add(self):
        result = self._result()
        result.add_readings([(3, 1.0, 1), (3, 1.0, 1), (4, 2.0, 1)])
        assert len(result.readings) == 2

    def test_dedup_across_calls(self):
        result = self._result()
        result.add_readings([(3, 1.0, 1)])
        result.add_readings([(3, 1.0, 1)])
        assert len(result.readings) == 1

    def test_complete_once_every_target_replied(self):
        result = self._result()
        assert not result.complete
        result.nodes_replied.add(1)
        assert not result.complete
        result.nodes_replied.add(2)
        assert result.complete

    def test_no_targets_complete(self):
        result = QueryResult(query=Query(time_range=(0.0, 1.0)))
        assert result.complete
