"""E15 integration tests: multi-attribute indexing, end to end.

Covers the ISSUE-5 differential harness:

* (a) a k=1 run with an *explicit* one-entry attribute registry is
  metric-identical to the legacy implicit single-attribute path;
* (b) multi-attribute campaigns stay bit-identical between ``jobs=1``
  and ``jobs=4``;
* (c) a reading is never indexed under the wrong attribute's storage
  index — every remotely stored reading's location is justified by its
  own attribute's index history;

plus the ground-truth oracle over a full multi-attribute SCOOP run.
"""

import pytest

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
from repro.core.query import Query
from repro.core.storage_index import STORE_LOCAL
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.sim.topology import perfect
from repro.workloads.multi import MultiAttributeWorkload
from tests.conftest import build_scoop_network
from tests.oracle import QueryOracle

DOMAIN = ValueDomain(0, 40)
ATTRS = (
    AttributeSpec("temperature", DOMAIN),
    AttributeSpec("light", ValueDomain(0, 60)),
)

FAST = dict(
    sample_interval=5.0,
    query_interval=10.0,
    summary_interval=20.0,
    remap_interval=40.0,
    stabilization=60.0,
    duration=160.0,
    beacon_interval=5.0,
    query_reply_window=8.0,
    batch_flush_timeout=30.0,
)


def two_attr_config(n_nodes=8, **overrides):
    kw = dict(FAST, n_nodes=n_nodes, domain=DOMAIN, attributes=ATTRS)
    kw.update(overrides)
    return ScoopConfig(**kw)


def run_two_attr_scoop(seed=1, n_nodes=8, query_every=10.0):
    """A full SCOOP loop over two attributes on a clean 8-node channel,
    issuing alternating per-attribute queries; returns everything the
    assertions need."""
    config = two_attr_config(n_nodes=n_nodes)
    workload = MultiAttributeWorkload(
        "gaussian", config.attribute_specs, n_nodes, seed=seed
    )
    net, base, nodes = build_scoop_network(
        perfect(n_nodes),
        config=config,
        seed=seed,
        source=workload.sample_attr,
    )
    net.boot_all(within=config.beacon_interval)
    net.run(config.stabilization)
    for node in nodes:
        node.start_sampling()
    base.start_scoop()
    results = []

    def tick():
        if net.sim.now >= config.stabilization + config.duration:
            return
        attr = len(results) % config.n_attributes
        domain = config.domain_of(attr)
        width = max(2, domain.size // 8)
        center = (len(results) * 7) % (domain.size - width)
        results.append(
            base.issue_query(
                Query(
                    time_range=(max(0.0, net.sim.now - 120.0), net.sim.now),
                    value_range=(domain.lo + center, domain.lo + center + width),
                    attr=attr,
                    domain=domain,
                )
            )
        )
        net.sim.schedule(query_every, tick)

    net.sim.schedule(query_every, tick)
    net.run(config.stabilization + config.duration)
    for node in nodes:
        node.stop_sampling()
    net.run(net.sim.now + config.query_reply_window + 5.0)
    return net, base, nodes, results, config


class TestMultiAttributeLoop:
    @pytest.fixture(scope="class")
    def loop(self):
        return run_two_attr_scoop()

    def test_every_attribute_gets_an_index_everywhere(self, loop):
        net, base, nodes, results, config = loop
        for attr in config.attribute_ids:
            assert base.index_for(attr) is not None
            assert base.index_for(attr).attr == attr
            for node in nodes:
                index = node.index_for(attr)
                assert index is not None, (node.node_id, attr)
                assert index.attr == attr
                assert index.domain == config.domain_of(attr)

    def test_index_ids_unique_across_attributes(self, loop):
        """Shared epoch, per-attribute index ids: every disseminated
        index draws its sid from one monotonic counter."""
        net, base, nodes, results, config = loop
        sids = [
            index.sid
            for attr in config.attribute_ids
            for _t, index in base.index_histories[attr]
        ]
        assert len(sids) == len(set(sids))

    def test_readings_never_under_wrong_attribute_index(self, loop):
        """Differential check (c): a reading stored away from its
        producer must sit at a node its OWN attribute's index history
        justifies — never at one only another attribute's index maps."""
        net, base, nodes, results, config = loop
        justified_by_attr = {}
        for attr in config.attribute_ids:
            owners_by_value = {}
            for _t, index in base.index_histories[attr]:
                for v in index.domain:
                    owners_by_value.setdefault(v, set()).update(
                        index.owners_of(v)
                    )
            justified_by_attr[attr] = owners_by_value
        checked = 0
        for node in nodes:
            for reading in node.flash.all_readings():
                if reading.origin == node.node_id:
                    continue  # stored locally: no index involved
                owners = justified_by_attr[reading.attr].get(
                    reading.value, set()
                )
                assert node.node_id in owners or STORE_LOCAL in owners, (
                    f"node {node.node_id} holds attr {reading.attr} value "
                    f"{reading.value} but no attr-{reading.attr} index ever "
                    f"mapped it there"
                )
                checked += 1
        assert checked > 0, "no remotely stored readings to check"

    def test_attribute_statistics_flow_to_base(self, loop):
        net, base, nodes, results, config = loop
        for attr in config.attribute_ids:
            producers = base.stats.producer_nodes(attr=attr)
            assert len(producers) >= config.n_nodes - 2, (attr, producers)
            assert base.stats.max_value_seen(attr=attr) is not None

    def test_oracle_subset_and_recall(self, loop):
        net, base, nodes, results, config = loop
        oracle = QueryOracle(net.tracker, config)
        recalls = oracle.check_results(results, min_mean_recall=0.5)
        assert len(recalls) >= 10
        scorecard, per_attr = oracle.scorecard(base.query_log)
        assert scorecard["precision_violations"] == 0
        assert set(per_attr) == {"a0", "a1"}
        for row in per_attr.values():
            assert row["readings_produced"] > 0
            assert row["queries_scored"] > 0

    def test_replies_respect_query_attribute(self, loop):
        """A query for one attribute only ever returns values from that
        attribute's domain-tagged readings (cross-checked against the
        produced record, not just the domain bounds)."""
        net, base, nodes, results, config = loop
        produced = {
            (r.attr, r.value, r.produced_at, r.producer)
            for r in net.tracker.readings
        }
        answered = 0
        for result in results:
            for value, timestamp, producer in result.readings:
                assert (
                    result.query.attr,
                    value,
                    timestamp,
                    producer,
                ) in produced
                answered += 1
        assert answered > 0


class TestDifferentialIdentity:
    def _spec(self, attributes, seed=1, policy="scoop"):
        return ExperimentSpec(
            policy=policy,
            workload="gaussian",
            scoop=ScoopConfig(
                n_nodes=14, domain=ValueDomain(0, 20), attributes=attributes, **FAST
            ),
            seed=seed,
        )

    def test_k1_registry_matches_legacy_path(self):
        """(a) an explicit one-entry registry and the legacy implicit
        attribute produce metric-identical trials (only the spec differs,
        so the cache keys differ — everything measured is equal)."""
        legacy = run_experiment(self._spec(attributes=()))
        explicit = run_experiment(
            self._spec(attributes=(AttributeSpec("value", ValueDomain(0, 20)),))
        )
        legacy_dict = legacy.deterministic_dict()
        explicit_dict = explicit.deterministic_dict()
        legacy_dict.pop("spec")
        explicit_dict.pop("spec")
        assert legacy_dict == explicit_dict

    def test_campaign_parallel_matches_serial(self, tmp_path):
        """(b) a multi-attribute campaign is bit-identical between
        jobs=1 and jobs=4."""
        attrs = (
            AttributeSpec("temperature", ValueDomain(0, 20)),
            AttributeSpec("light", ValueDomain(0, 30)),
        )
        specs = [
            self._spec(attributes=attrs, seed=seed, policy=policy)
            for seed in (1, 2)
            for policy in ("scoop", "local")
        ]
        def campaign():
            return Campaign.from_specs("multi-deterministic", list(specs))

        serial = run_campaign(
            campaign(), jobs=1, cache=ResultCache(tmp_path / "serial")
        )
        parallel = run_campaign(
            campaign(), jobs=4, cache=ResultCache(tmp_path / "parallel")
        )
        assert serial.executed == parallel.executed == len(specs)
        for s, p in zip(serial.trials, parallel.trials):
            assert s.trial.key == p.trial.key
            assert s.result.deterministic_dict() == p.result.deterministic_dict()
