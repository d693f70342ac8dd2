"""Unit tests for the five data sources and the query generator."""

import random

import pytest

from repro.core.config import ValueDomain
from repro.workloads import make_workload
from repro.workloads.queries import QueryGenerator, QueryPlanConfig
from repro.workloads.real_trace import CorrelatedLightWorkload
from repro.workloads.synthetic import (
    EqualWorkload,
    GaussianWorkload,
    RandomWorkload,
    UniqueWorkload,
)

DOMAIN = ValueDomain(0, 100)


class TestSynthetic:
    def test_unique_returns_node_id(self):
        wl = UniqueWorkload(DOMAIN, 10)
        for node in range(10):
            assert wl.sample(node, 0.0) == node

    def test_unique_clamps_to_domain(self):
        wl = UniqueWorkload(ValueDomain(0, 5), 10)
        assert wl.sample(9, 0.0) == 5

    def test_equal_constant(self):
        wl = EqualWorkload(DOMAIN, 10)
        values = {wl.sample(n, t) for n in range(10) for t in (0.0, 50.0)}
        assert len(values) == 1

    def test_equal_custom_value(self):
        assert EqualWorkload(DOMAIN, 5, value=42).sample(3, 1.0) == 42

    def test_random_in_domain(self):
        wl = RandomWorkload(DOMAIN, 10, seed=3)
        for k in range(50):
            assert wl.sample(k % 10, float(k)) in DOMAIN

    def test_random_deterministic_replay(self):
        a = RandomWorkload(DOMAIN, 10, seed=3)
        b = RandomWorkload(DOMAIN, 10, seed=3)
        times = [float(t) for t in range(20)]
        assert [a.sample(4, t) for t in times] == [b.sample(4, t) for t in times]

    def test_random_varies(self):
        wl = RandomWorkload(DOMAIN, 10, seed=3)
        values = {wl.sample(1, float(t)) for t in range(30)}
        assert len(values) > 10

    def test_gaussian_clusters_around_mean(self):
        wl = GaussianWorkload(DOMAIN, 10, seed=5)
        mean = wl.mean_of(4)
        values = [wl.sample(4, float(t)) for t in range(100)]
        observed = sum(values) / len(values)
        assert abs(observed - mean) < 5.0

    def test_gaussian_variance_is_papers(self):
        wl = GaussianWorkload(DOMAIN, 5, seed=6)
        values = [wl.sample(2, float(t)) for t in range(500)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert 4.0 < var < 25.0  # paper: variance 10 (clamping skews a bit)

    def test_gaussian_means_differ_between_nodes(self):
        wl = GaussianWorkload(DOMAIN, 30, seed=7)
        means = {round(wl.mean_of(n)) for n in range(30)}
        assert len(means) > 15


class TestRealTrace:
    def test_temporal_correlation(self):
        wl = CorrelatedLightWorkload(DOMAIN, 10, seed=1)
        deltas = [
            abs(wl.sample(3, t + 15.0) - wl.sample(3, t)) for t in range(0, 600, 15)
        ]
        assert sum(deltas) / len(deltas) < 10.0

    def test_spatial_offsets_differ(self):
        wl = CorrelatedLightWorkload(DOMAIN, 20, seed=1)
        snapshots = [wl.sample(n, 100.0) for n in range(20)]
        assert len(set(snapshots)) > 5

    def test_positions_drive_offsets(self):
        positions = [(float(i), 0.0) for i in range(10)]
        wl = CorrelatedLightWorkload(DOMAIN, 10, seed=1, positions=positions)
        left = wl.sample(0, 100.0)
        right = wl.sample(9, 100.0)
        assert abs(right - left) > 10  # gradient across the floor

    def test_nearby_nodes_similar(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (200.0, 0.0)]
        wl = CorrelatedLightWorkload(DOMAIN, 3, seed=2, positions=positions)
        near = abs(wl.sample(0, 50.0) - wl.sample(1, 50.0))
        far = abs(wl.sample(0, 50.0) - wl.sample(2, 50.0))
        assert near < far

    def test_in_domain(self):
        wl = CorrelatedLightWorkload(DOMAIN, 5, seed=3)
        for t in range(0, 3000, 100):
            assert wl.sample(2, float(t)) in DOMAIN


class TestFactory:
    def test_all_names(self):
        for name in ("unique", "equal", "random", "gaussian", "real"):
            wl = make_workload(name, DOMAIN, 10, seed=1)
            assert wl.name in (name,)
            assert wl.sample(1, 0.0) in DOMAIN

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_workload("nope", DOMAIN, 10)


class TestQueryGenerator:
    def _generator(self, plan, seed=1):
        return QueryGenerator(plan, [DOMAIN], list(range(1, 21)), random.Random(seed))

    def test_value_query_width(self):
        plan = QueryPlanConfig(kind="value", width_frac=(0.05, 0.05))
        gen = self._generator(plan)
        for _ in range(20):
            lo, hi = gen.value_range()
            assert hi - lo + 1 == round(0.05 * DOMAIN.size)
            assert lo >= DOMAIN.lo and hi <= DOMAIN.hi

    def test_node_query_fraction(self):
        plan = QueryPlanConfig(kind="nodes", node_frac=0.25)
        gen = self._generator(plan)
        nodes = gen.node_set()
        assert len(nodes) == 5
        assert all(1 <= n <= 20 for n in nodes)

    def test_next_query_time_window(self):
        plan = QueryPlanConfig(kind="value", time_window=100.0)
        gen = self._generator(plan)
        query = gen.next_query(now=500.0)
        assert query.time_range == (400.0, 500.0)

    def test_node_query_has_no_value_range(self):
        plan = QueryPlanConfig(kind="nodes")
        query = self._generator(plan).next_query(now=10.0)
        assert query.value_range is None
        assert query.node_list is not None

    def test_invalid_plan_rejected(self):
        with pytest.raises(ValueError):
            QueryPlanConfig(kind="bogus")
        with pytest.raises(ValueError):
            QueryPlanConfig(node_frac=0.0)
