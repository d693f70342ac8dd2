"""Unit tests for the LOCAL, BASE and HASH baselines."""


from repro.baselines.hash_static import (
    AnalyticalHashModel,
    build_hash_index,
    hash_owner,
)
from repro.baselines.local import LocalBasestation, LocalNode
from repro.baselines.send_base import SendToBaseBasestation, SendToBaseNode
from repro.core.config import ScoopConfig, ValueDomain
from repro.core.query import Query
from repro.sim.network import Network
from repro.sim.topology import line, perfect
from repro.workloads.queries import QueryPlanConfig
from repro.workloads.synthetic import UniqueWorkload

DOMAIN = ValueDomain(0, 100)


def build_policy_network(node_cls, base_cls, n=5, config=None, source=None):
    topo = perfect(n)
    config = config or ScoopConfig(n_nodes=n, domain=DOMAIN, beacon_interval=5.0)
    net = Network(topo, seed=1)
    base = base_cls(net.sim, net.radio, config, tracker=net.tracker)
    nodes = [
        node_cls(i, net.sim, net.radio, config, source=source, tracker=net.tracker)
        for i in config.sensor_ids
    ]
    net.add_mote(base)
    for node in nodes:
        net.add_mote(node)
    net.boot_all(within=2.0)
    net.run(40.0)
    return net, base, nodes


class TestLocal:
    def test_readings_stay_at_producer(self):
        net, base, nodes = build_policy_network(
            LocalNode, LocalBasestation, source=lambda n, t, a: 42
        )
        for node in nodes:
            node.start_sampling()
        net.run(net.sim.now + 30.0)
        for node in nodes:
            assert len(node.flash) >= 1
        assert len(base.flash) == 0

    def test_no_data_or_summary_messages(self):
        from repro.sim.packets import FrameKind

        net, base, nodes = build_policy_network(
            LocalNode, LocalBasestation, source=lambda n, t, a: 42
        )
        for node in nodes:
            node.start_sampling()
        net.run(net.sim.now + 60.0)
        by_kind = net.census.sent_by_kind()
        assert by_kind.get(FrameKind.DATA, 0) == 0
        assert by_kind.get(FrameKind.SUMMARY, 0) == 0
        assert by_kind.get(FrameKind.MAPPING, 0) == 0

    def test_plan_targets_everyone(self):
        net, base, nodes = build_policy_network(LocalNode, LocalBasestation)
        q = Query(time_range=(0.0, 10.0), value_range=(1, 5))
        assert base.plan_query(q) == {1, 2, 3, 4}

    def test_plan_floods_even_node_list_queries(self):
        net, base, nodes = build_policy_network(LocalNode, LocalBasestation)
        q = Query(time_range=(0.0, 10.0), node_list=frozenset({2}))
        assert base.plan_query(q) == {1, 2, 3, 4}

    def test_query_retrieves_local_data(self):
        net, base, nodes = build_policy_network(
            LocalNode, LocalBasestation, source=lambda n, t, a: n * 10
        )
        for node in nodes:
            node.start_sampling()
        net.run(net.sim.now + 30.0)
        result = base.issue_query(
            Query(time_range=(0.0, net.sim.now), value_range=(15, 25))
        )
        net.run(net.sim.now + base.config.query_reply_window + 2.0)
        values = {v for v, _t, _p in result.readings}
        assert values == {20}  # only node 2 produces 20


class TestSendToBase:
    def test_all_data_lands_at_base(self):
        net, base, nodes = build_policy_network(
            SendToBaseNode, SendToBaseBasestation, source=lambda n, t, a: n
        )
        for node in nodes:
            node.start_sampling()
        net.run(net.sim.now + 40.0)
        assert len(base.flash) >= len(nodes)
        for node in nodes:
            assert len(node.flash) == 0

    def test_queries_cost_nothing(self):
        from repro.sim.packets import FrameKind

        net, base, nodes = build_policy_network(
            SendToBaseNode, SendToBaseBasestation, source=lambda n, t, a: n
        )
        for node in nodes:
            node.start_sampling()
        net.run(net.sim.now + 30.0)
        before = net.census.sent_by_kind().get(FrameKind.QUERY, 0)
        result = base.issue_query(
            Query(time_range=(0.0, net.sim.now), value_range=(0, 100))
        )
        net.run(net.sim.now + 2.0)
        assert result.answered_locally
        assert net.census.sent_by_kind().get(FrameKind.QUERY, 0) == before

    def test_unbatched_one_message_per_reading(self):
        net, base, nodes = build_policy_network(
            SendToBaseNode, SendToBaseBasestation, source=lambda n, t, a: 7
        )
        node = nodes[0]
        node.sampling = True
        node.source = lambda n, t, a: 7
        node._sample()
        net.run(net.sim.now + 2.0)
        readings = base.flash.all_readings()
        assert len(readings) == 1


class TestHash:
    def test_hash_owner_deterministic_and_uniform(self):
        sensors = list(range(1, 63))
        owners = [hash_owner(v, sensors) for v in range(150)]
        assert owners == [hash_owner(v, sensors) for v in range(150)]
        # spread across many owners
        assert len(set(owners)) > 30

    def test_hash_index_covers_domain(self):
        config = ScoopConfig(n_nodes=10, domain=DOMAIN)
        index = build_hash_index(config)
        assert index.all_owners() <= set(range(1, 10))
        for v in DOMAIN:
            assert index.owner_of(v) in range(1, 10)

    def test_analytical_estimate_positive(self):
        config = ScoopConfig(n_nodes=5, domain=DOMAIN, duration=300.0)
        topo = line(5)
        model = AnalyticalHashModel(topo, config)
        workload = UniqueWorkload(DOMAIN, 5)
        estimate = model.estimate(
            workload, QueryPlanConfig(kind="value"), duration=300.0, seed=1
        )
        assert estimate.data > 0
        assert estimate.query_reply > 0
        assert estimate.total == estimate.data + estimate.query_reply

    def test_analytical_data_scales_with_duration(self):
        config = ScoopConfig(n_nodes=5, domain=DOMAIN)
        topo = line(5)
        model = AnalyticalHashModel(topo, config)
        workload = UniqueWorkload(DOMAIN, 5)
        plan = QueryPlanConfig(kind="value")
        short = model.estimate(workload, plan, duration=150.0, seed=1)
        long = model.estimate(workload, plan, duration=600.0, seed=1)
        assert long.data > 2.5 * short.data

    def test_breakdown_matches_categories(self):
        config = ScoopConfig(n_nodes=5, domain=DOMAIN)
        model = AnalyticalHashModel(line(5), config)
        estimate = model.estimate(
            UniqueWorkload(DOMAIN, 5), QueryPlanConfig(), duration=150.0
        )
        breakdown = estimate.breakdown()
        assert set(breakdown) == {"data", "summary", "mapping", "query/reply"}
        assert breakdown["summary"] == 0.0
