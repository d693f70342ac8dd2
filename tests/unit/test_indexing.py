"""Unit tests for the Figure 2 indexing algorithm and its extensions.

The paper's four properties (P1-P4) are each exercised directly: data rate
pulls values toward producers, query rate pulls them toward the
basestation, likely producers attract their values, and lossy links repel
ownership.
"""


from repro.core.config import ScoopConfig, ValueDomain
from repro.core.cost_model import NetworkModel
from repro.core.histogram import Histogram
from repro.core.indexing import (
    INDEX_TIE_TOLERANCE,
    build_storage_index,
    evaluate_index_cost,
    evaluate_store_local_cost,
)
from repro.core.messages import AttributeSummary, SummaryMessage
from repro.core.statistics import BasestationStatistics

DOMAIN = ValueDomain(0, 19)


def make_config(**kw):
    kw.setdefault("n_nodes", 4)
    kw.setdefault("domain", DOMAIN)
    return ScoopConfig(**kw)


def summary(origin, values, neighbors, sid=-1, readings=10):
    block = AttributeSummary(
        attr=0,
        histogram=Histogram.from_values(values, 10),
        min_value=min(values),
        max_value=max(values),
        sum_values=sum(values),
        last_sid=sid,
    )
    return SummaryMessage(
        origin=origin,
        readings_since_last=readings,
        neighbors=tuple(neighbors),
        blocks=(block,),
    )


def line_statistics(config, node_values, quality=0.9):
    """Stats for a line 0 - 1 - 2 - 3 with the given per-node values."""
    stats = BasestationStatistics(config)
    now = 100.0
    for node, values in node_values.items():
        neighbors = [
            (nbr, quality)
            for nbr in (node - 1, node + 1)
            if 0 <= nbr < config.n_nodes
        ]
        stats.ingest_summary(summary(node, values, neighbors), now + node)
        # second summary to establish a data rate
        stats.ingest_summary(
            summary(node, values, neighbors), now + node + config.summary_interval
        )
        stats.observe_packet_header(node, node - 1 if node > 0 else None, now)
    return stats


class TestBasicPlacement:
    def test_p3_producer_attracts_own_values(self):
        config = make_config()
        stats = line_statistics(
            config, {1: [2, 3, 4], 2: [10, 11, 12], 3: [17, 18, 19]}
        )
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=400.0)
        index = result.index
        assert index.owner_of(3) == 1
        assert index.owner_of(11) == 2
        assert index.owner_of(18) == 3

    def test_p2_query_rate_pulls_to_base(self):
        config = make_config()
        stats = line_statistics(config, {3: [10, 11, 12]})
        # Hammer value 11 with queries at an enormous rate relative to data.
        for k in range(2000):
            stats.record_query((10, 12), now=100.0 + k * 0.1)
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=300.0)
        # The queried band moves to (or next to) the basestation.
        owner = result.index.owner_of(11)
        assert model.roundtrip(0, owner) <= model.roundtrip(0, 3)

    def test_p1_data_rate_pulls_to_producer(self):
        config = make_config()
        stats = line_statistics(config, {3: [10, 11, 12]})
        # Light query load on the same range.
        stats.record_query((10, 12), now=100.0)
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=300.0)
        assert result.index.owner_of(11) == 3

    def test_p4_lossy_owner_avoided(self):
        config = make_config(n_nodes=4)
        stats = BasestationStatistics(config)
        now = 100.0
        # Nodes 1 and 2 both produce value 10; node 2 is behind a terrible
        # link, node 1 behind a good one.
        stats.ingest_summary(summary(1, [10] * 10, [(0, 0.95), (2, 0.9)]), now)
        stats.ingest_summary(summary(2, [10] * 10, [(1, 0.15)]), now)
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=200.0)
        assert result.index.owner_of(10) in (0, 1)

    def test_no_stats_maps_everything_to_base(self):
        config = make_config()
        stats = BasestationStatistics(config)
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=10.0)
        assert result.index.all_owners() == frozenset({0})

    def test_chosen_index_not_worse_than_alternatives(self):
        config = make_config()
        stats = line_statistics(
            config, {1: [2, 3, 4], 2: [10, 11, 12], 3: [17, 18, 19]}
        )
        stats.record_query((0, 19), now=150.0)
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=400.0)
        chosen_cost = evaluate_index_cost(result.index, stats, model, config, 400.0)
        from repro.core.storage_index import StorageIndex

        send_base = StorageIndex.uniform(9, DOMAIN, 0)
        base_cost = evaluate_index_cost(send_base, stats, model, config, 400.0)
        # tie-stabilisation allows up to the tolerance band above optimal
        assert chosen_cost <= base_cost * (1.0 + INDEX_TIE_TOLERANCE) + 1e-9


class TestStoreLocalComparison:
    def test_store_local_cost_scales_with_query_rate(self):
        config = make_config()
        stats = line_statistics(config, {1: [5] * 5, 2: [9] * 5})
        model = NetworkModel.from_statistics(stats)
        low = evaluate_store_local_cost(stats, model, config, now=200.0)
        for k in range(100):
            stats.record_query((0, 19), now=100.0 + k)
        high = evaluate_store_local_cost(stats, model, config, now=200.0)
        assert high > low

    def test_fallback_disabled_by_default(self):
        config = make_config()
        stats = line_statistics(config, {1: [5] * 5})
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=200.0)
        assert not result.chose_store_local

    def test_fallback_chosen_when_cheaper(self):
        # Zero queries: store-local costs nothing, any shipping costs more.
        config = make_config(allow_store_local_fallback=True)
        stats = line_statistics(config, {1: [5] * 5, 2: [5] * 5, 3: [5] * 5})
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=200.0)
        if result.expected_cost > 0:
            assert result.chose_store_local


class TestExtensions:
    def test_owner_sets_reduce_expected_cost(self):
        config = make_config(max_owners_per_value=2)
        # Nodes 1 and 3 (far apart) produce the same value.
        stats = line_statistics(config, {1: [10] * 10, 3: [10] * 10})
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=300.0)
        owners = result.index.owners_of(10)
        assert len(owners) <= 2
        single = build_storage_index(
            1,
            stats,
            model,
            ScoopConfig(n_nodes=4, domain=DOMAIN),
            now=300.0,
        )
        multi_cost = evaluate_index_cost(result.index, stats, model, config, 300.0)
        single_cost = evaluate_index_cost(single.index, stats, model, config, 300.0)
        assert multi_cost <= single_cost + 1e-9

    def test_range_placement_yields_coarse_ranges(self):
        config = make_config(range_placement_width=5)
        stats = line_statistics(
            config, {1: [2, 3, 4], 2: [10, 11, 12], 3: [17, 18, 19]}
        )
        model = NetworkModel.from_statistics(stats)
        result = build_storage_index(1, stats, model, config, now=300.0)
        for entry in result.index.compact():
            # every range boundary aligns to the placement grid
            assert entry.lo % 5 == 0 or entry.lo == DOMAIN.lo

    def test_previous_index_stabilises_ties(self):
        config = make_config()
        stats = line_statistics(config, {1: [10] * 10, 2: [10] * 10})
        model = NetworkModel.from_statistics(stats)
        first = build_storage_index(1, stats, model, config, now=300.0)
        second = build_storage_index(
            2, stats, model, config, now=301.0, previous=first.index
        )
        assert second.index.similarity(first.index) > 0.9
