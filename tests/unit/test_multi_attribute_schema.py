"""Unit tests for the multi-attribute schema (E15): attribute registry,
wire formats, shared-epoch chunking, per-attribute statistics and query
validation."""

import pytest

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
from repro.core.histogram import Histogram
from repro.core.messages import (
    AttributeSummary,
    DataMessage,
    MappingChunk,
    QueryMessage,
    SummaryMessage,
)
from repro.core.query import Query
from repro.core.statistics import BasestationStatistics
from repro.core.storage_index import (
    StorageIndex,
    chunk_index_set,
    indexes_from_chunks,
)
from repro.experiments.runner import ExperimentSpec, spec_key
from repro.workloads.multi import MultiAttributeWorkload
from repro.workloads.queries import QueryGenerator, QueryPlanConfig

D0 = ValueDomain(0, 20)
D1 = ValueDomain(0, 35)
ATTRS = (AttributeSpec("temperature", D0), AttributeSpec("light", D1))


def config(**kw):
    kw.setdefault("n_nodes", 6)
    kw.setdefault("domain", D0)
    return ScoopConfig(**kw)


class TestAttributeRegistry:
    def test_legacy_config_has_implicit_attribute(self):
        c = config()
        assert c.n_attributes == 1
        assert c.attribute_specs[0].name == "value"
        assert c.domain_of(0) == D0
        assert list(c.attribute_ids) == [0]

    def test_registry_domains_and_names(self):
        c = config(attributes=ATTRS)
        assert c.n_attributes == 2
        assert c.domain_of(1) == D1
        assert c.attribute_specs[1].name == "light"
        with pytest.raises(ValueError):
            c.domain_of(2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            config(attributes=(AttributeSpec("t", D0), AttributeSpec("t", D1)))

    def test_attr0_domain_must_match_legacy_field(self):
        with pytest.raises(ValueError, match="legacy attribute"):
            config(attributes=(AttributeSpec("t", D1),))

    def test_serialization_round_trip(self):
        c = config(attributes=ATTRS)
        rebuilt = ScoopConfig.from_dict(c.to_dict())
        assert rebuilt == c
        assert rebuilt.attributes == ATTRS

    def test_spec_key_distinguishes_attribute_registries(self):
        base = ExperimentSpec(policy="scoop", workload="gaussian", scoop=config())
        multi = ExperimentSpec(
            policy="scoop", workload="gaussian", scoop=config(attributes=ATTRS)
        )
        assert spec_key(base) != spec_key(multi)
        assert spec_key(multi) == spec_key(ExperimentSpec.from_dict(multi.to_dict()))


class TestWireFormats:
    def test_legacy_messages_keep_paper_sizes(self):
        data = DataMessage(readings=[(1, 0.0, 2)], owner=3, sid=1)
        assert data.wire_bytes() == 5 + 4
        chunk = MappingChunk(sid=1, index=0, total=1, entries=((0, 5, 3),))
        assert chunk.wire_bytes() == 4 + 5

    def test_attribute_fields_are_priced(self):
        tagged = DataMessage(readings=[(1, 0.0, 2)], owner=3, sid=1, attr=1)
        untagged = DataMessage(readings=[(1, 0.0, 2)], owner=3, sid=1)
        assert tagged.wire_bytes() == untagged.wire_bytes() + 1
        q = dict(
            query_id=1,
            bitmap=frozenset({1}),
            time_range=(0.0, 1.0),
            value_range=(1, 2),
            issued_at=0.0,
        )
        assert (
            QueryMessage(attr=1, **q).wire_bytes()
            == QueryMessage(**q).wire_bytes() + 1
        )

    def test_summary_blocks_cost_bytes_not_messages(self):
        hist = Histogram.from_values([1, 2, 3], 4)
        assert hist.wire_bytes() == 8
        head = AttributeSummary(
            attr=0, histogram=hist, min_value=1, max_value=3, sum_values=6, last_sid=1
        )
        block = AttributeSummary(
            attr=1, histogram=hist, min_value=1, max_value=3, sum_values=6, last_sid=2
        )
        neighbors = ((1, 0.9), (2, 0.5))
        base = SummaryMessage(
            origin=3, readings_since_last=3, neighbors=neighbors, blocks=(head,)
        )
        multi = SummaryMessage(
            origin=3, readings_since_last=3, neighbors=neighbors, blocks=(head, block)
        )
        # the paper's layout: histogram + min/max/sum + sid + 2 bytes per
        # neighbour; attribute 0's block carries no attribute id
        assert base.wire_bytes() == 8 + 10 + 2 * 2
        assert block.wire_bytes() == 1 + 8 + 10
        assert multi.wire_bytes() == base.wire_bytes() + block.wire_bytes()


class TestSharedEpochChunks:
    def _indexes(self):
        return {
            0: StorageIndex.single_owner(7, D0, [3] * D0.size, attr=0),
            1: StorageIndex.single_owner(9, D1, [2] * 18 + [4] * 18, attr=1),
        }

    def test_epoch_round_trip_preserves_attr_sids(self):
        chunks = chunk_index_set(11, self._indexes())
        assert all(c.sid == 11 for c in chunks)
        # tagged chunks: 4-byte header + attribute id and index id + rows
        assert [c.wire_bytes() for c in chunks] == [7 + 5 * 1, 7 + 5 * 2]
        rebuilt = indexes_from_chunks({0: D0, 1: D1}, chunks)
        assert rebuilt[0] == self._indexes()[0]
        assert rebuilt[1] == self._indexes()[1]
        assert rebuilt[0].sid == 7 and rebuilt[1].sid == 9

    def test_chunks_never_span_attributes(self):
        chunks = chunk_index_set(11, self._indexes(), max_entries=1)
        for chunk in chunks:
            assert len({chunk.attr}) == 1
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_missing_chunk_rejected(self):
        chunks = chunk_index_set(11, self._indexes(), max_entries=1)
        with pytest.raises(ValueError):
            indexes_from_chunks({0: D0, 1: D1}, chunks[:-1])

    def test_unknown_attribute_rejected(self):
        chunks = chunk_index_set(11, self._indexes())
        with pytest.raises(ValueError, match="unknown attribute"):
            indexes_from_chunks({0: D0}, chunks)

    def test_legacy_single_index_chunks_untouched(self):
        """A one-attribute epoch sends the paper's untagged chunks."""
        index = StorageIndex.single_owner(5, D0, [3] * 10 + [4] * 11)
        chunks = chunk_index_set(5, {0: index})
        rebuilt = indexes_from_chunks({0: D0}, chunks)[0]
        assert rebuilt == index
        assert all(c.attr == 0 and c.attr_sid == -1 for c in chunks)
        assert [c.wire_bytes() for c in chunks] == [4 + 5 * 2]


def summary_with_blocks(origin, last_sid=-1, extra=()):
    values = [5, 6, 7]
    head = AttributeSummary(
        attr=0,
        histogram=Histogram.from_values(values, 5),
        min_value=min(values),
        max_value=max(values),
        sum_values=sum(values),
        last_sid=last_sid,
    )
    return SummaryMessage(
        origin=origin,
        readings_since_last=3,
        neighbors=(),
        blocks=(head,) + tuple(extra),
    )


class TestPerAttributeStatistics:
    def test_blocks_route_to_their_attribute(self):
        stats = BasestationStatistics(config(attributes=ATTRS))
        block = AttributeSummary(
            attr=1,
            histogram=Histogram.from_values([20, 25], 5),
            min_value=20,
            max_value=25,
            sum_values=45,
            last_sid=4,
        )
        stats.ingest_summary(summary_with_blocks(2, last_sid=3, extra=[block]), 10.0)
        assert stats.producer_nodes(attr=0) == [2]
        assert stats.producer_nodes(attr=1) == [2]
        assert stats.max_value_seen(attr=0) == 7
        assert stats.max_value_seen(attr=1) == 25
        assert 4 in stats.sids_in_use(0.0, 20.0, attr=1)
        assert 3 in stats.sids_in_use(0.0, 20.0, attr=0)

    def test_per_attribute_query_statistics(self):
        stats = BasestationStatistics(config(attributes=ATTRS))
        stats.record_query((1, 3), now=0.0, attr=0)
        stats.record_query((10, 30), now=1.0, attr=1)
        stats.record_query((11, 31), now=2.0, attr=1)
        assert stats.queries_for(0).total_queries == 1
        assert stats.queries_for(1).total_queries == 2
        with pytest.raises(ValueError):
            stats.queries_for(2)

    def test_production_matrix_uses_attr_domain(self):
        stats = BasestationStatistics(config(attributes=ATTRS))
        stats.ingest_summary(summary_with_blocks(1), 10.0)
        assert stats.production_matrix([1], attr=1).shape == (1, D1.size)
        assert stats.production_matrix([1], attr=0).shape == (1, D0.size)


class TestQueryValidation:
    def test_out_of_domain_value_range_rejected_at_construction(self):
        with pytest.raises(ValueError, match="outside attribute"):
            Query(time_range=(0.0, 1.0), value_range=(0, 99), domain=D0)

    def test_in_domain_range_accepted(self):
        q = Query(time_range=(0.0, 1.0), value_range=(0, 20), domain=D0, attr=0)
        assert q.value_range == (0, 20)

    def test_negative_attribute_rejected(self):
        with pytest.raises(ValueError, match="attribute id"):
            Query(time_range=(0.0, 1.0), attr=-1)

    def test_generator_round_robins_attributes_within_domains(self):
        import random

        plan = QueryPlanConfig(n_attributes=2)
        generator = QueryGenerator(plan, [D0, D1], [1, 2, 3], random.Random(7))
        queries = [generator.next_query(100.0) for _ in range(6)]
        assert [q.attr for q in queries] == [0, 1, 0, 1, 0, 1]
        for q in queries:
            lo, hi = q.value_range
            domain = (D0, D1)[q.attr]
            assert lo in domain and hi in domain

    def test_plan_needs_enough_domains(self):
        import random

        plan = QueryPlanConfig(n_attributes=3)
        with pytest.raises(ValueError, match="domains"):
            QueryGenerator(plan, [D0, D1], [1], random.Random(1))


class TestMultiAttributeWorkload:
    def test_attr0_identical_to_base_family(self):
        from repro.workloads import make_workload

        multi = MultiAttributeWorkload("gaussian", ATTRS, 6, seed=3)
        single = make_workload("gaussian", D0, 6, seed=3)
        for node in range(1, 6):
            for t in (0.0, 5.0, 10.0):
                assert multi.sample_attr(node, t, 0) == single.sample(node, t)

    def test_streams_deterministic_and_in_domain(self):
        multi = MultiAttributeWorkload("gaussian", ATTRS, 6, seed=3)
        replay = MultiAttributeWorkload("gaussian", ATTRS, 6, seed=3)
        for node in range(1, 6):
            for t in (0.0, 5.0, 10.0):
                v = multi.sample_attr(node, t, 1)
                assert v == replay.sample_attr(node, t, 1)
                assert v in D1

    def test_correlation_pulls_streams_together(self):
        independent = MultiAttributeWorkload(
            "gaussian", ATTRS, 20, seed=3, correlation=0.0
        )
        locked = MultiAttributeWorkload(
            "gaussian", ATTRS, 20, seed=3, correlation=1.0
        )
        times = [float(t) for t in range(0, 100, 5)]

        def spread(workload):
            total = 0.0
            for node in range(1, 20):
                for t in times:
                    v0 = workload.sample_attr(node, t, 0) / D0.size
                    v1 = workload.sample_attr(node, t, 1) / D1.size
                    total += abs(v0 - v1)
            return total

        assert spread(locked) < spread(independent)

    def test_unknown_attribute_rejected(self):
        multi = MultiAttributeWorkload("gaussian", ATTRS, 6, seed=3)
        with pytest.raises(ValueError):
            multi.sample_attr(1, 0.0, 2)
