"""Unit tests for failure injection: schedules, dead radios, cold reboots,
staleness eviction, and the E14 churn wiring."""

import dataclasses

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.messages import AttributeSummary, SummaryMessage
from repro.core.statistics import BasestationStatistics
from repro.experiments.runner import ExperimentSpec, build_failure_schedule
from repro.sim.failure import FailureEvent, FailureInjector, FailureSchedule
from repro.sim.flash import StoredReading
from repro.sim.metrics import DeliveryTracker
from repro.sim.packets import FrameKind
from repro.sim.topology import perfect
from tests.conftest import build_scoop_network


class TestFailureSchedule:
    def test_events_sorted_and_validated(self):
        schedule = FailureSchedule(
            [FailureEvent(3, at=20.0), FailureEvent(2, at=10.0, revive_at=30.0)]
        )
        assert [e.node for e in schedule] == [2, 3]
        assert len(schedule) == 2

    def test_basestation_cannot_be_killed(self):
        with pytest.raises(ValueError, match="basestation"):
            FailureEvent(0, at=5.0)

    def test_revive_must_follow_kill(self):
        with pytest.raises(ValueError, match="revive"):
            FailureEvent(1, at=5.0, revive_at=5.0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="at most once"):
            FailureSchedule([FailureEvent(1, at=1.0), FailureEvent(1, at=2.0)])

    def test_from_rate_is_deterministic_per_seed(self):
        a = FailureSchedule.from_rate(0.5, range(1, 21), (100.0, 200.0), seed=7)
        b = FailureSchedule.from_rate(0.5, range(1, 21), (100.0, 200.0), seed=7)
        c = FailureSchedule.from_rate(0.5, range(1, 21), (100.0, 200.0), seed=8)
        assert a.events == b.events
        assert a.events != c.events
        assert len(a) == 10
        assert all(100.0 <= e.at <= 200.0 for e in a)

    def test_kill_order_is_not_biased_by_node_id(self):
        # Node ids encode position in the topology generators, so the
        # node-to-kill-time assignment must be random, not id-ordered.
        def kill_order(seed):
            schedule = FailureSchedule.from_rate(
                0.8, range(1, 21), (0.0, 100.0), seed=seed
            )
            return [e.node for e in sorted(schedule, key=lambda e: e.at)]

        orders = [kill_order(seed) for seed in range(6)]
        assert any(order != sorted(order) for order in orders)
        assert len({tuple(order) for order in orders}) > 1

    def test_from_rate_revive_fraction(self):
        schedule = FailureSchedule.from_rate(
            0.5, range(1, 21), (0.0, 50.0), seed=1, revive_frac=0.5, downtime=40.0
        )
        revived = [e for e in schedule if e.revive_at is not None]
        assert len(revived) == 5
        assert all(e.revive_at == pytest.approx(e.at + 40.0) for e in revived)

    def test_from_rate_bounds(self):
        with pytest.raises(ValueError):
            FailureSchedule.from_rate(1.5, range(1, 5), (0.0, 1.0), seed=1)
        with pytest.raises(ValueError, match="downtime"):
            FailureSchedule.from_rate(
                0.5, range(1, 5), (0.0, 1.0), seed=1, revive_frac=0.5
            )


class TestDeadNode:
    def test_killed_node_stops_transmitting_and_hearing(self, perfect6):
        net, base, nodes = perfect6
        net.boot_all(within=1.0)
        net.run(30.0)
        victim = nodes[2]
        sent_before = net.census.node_sent(
            victim.node_id, kinds=tuple(FrameKind)
        )
        assert sent_before > 0  # it was beaconing
        net.fail_node(victim.node_id)
        received_at_death = net.census.node_received(
            victim.node_id, kinds=tuple(FrameKind)
        )
        net.run(120.0)
        assert not victim.booted
        assert (
            net.census.node_sent(victim.node_id, kinds=tuple(FrameKind))
            == sent_before
        )
        assert (
            net.census.node_received(victim.node_id, kinds=tuple(FrameKind))
            == received_at_death
        )

    def test_kill_during_boot_stagger_cancels_the_boot(self, perfect6):
        net, _base, nodes = perfect6
        net.boot_all(within=10.0)  # boots are pending, none fired yet
        net.fail_node(nodes[0].node_id)
        net.run(30.0)
        assert not nodes[0].booted  # the pending boot must not resurrect it
        net.revive_node(nodes[0].node_id)
        net.run(60.0)
        assert nodes[0].booted and nodes[0].tree.joined

    def test_killing_the_basestation_is_rejected(self, perfect6):
        net, base, nodes = perfect6
        with pytest.raises(ValueError, match="basestation"):
            net.fail_node(base.node_id)

    def test_neighbors_forget_a_dead_node(self, small_config):
        config = dataclasses.replace(small_config, beacon_interval=2.0)
        net, base, nodes = build_scoop_network(perfect(6), config=config)
        net.boot_all(within=1.0)
        net.run(20.0)
        victim = nodes[0]
        assert any(n.linkest.knows(victim.node_id) for n in nodes[1:])
        net.fail_node(victim.node_id)
        # Run past the silence timeout; survivors must evict the dead
        # neighbor organically (no reset happens on their behalf).
        net.run(20.0 + nodes[1].linkest.silence_timeout + 60.0)
        for node in nodes[1:]:
            node.linkest.expire(net.sim.now)
            assert not node.linkest.knows(victim.node_id)
            assert node.tree.parent != victim.node_id

    def test_revive_cold_reboots_but_keeps_flash(self, perfect6):
        net, base, nodes = perfect6
        net.boot_all(within=1.0)
        net.run(30.0)
        victim = nodes[1]
        victim.flash.store(StoredReading(origin=victim.node_id, value=5, timestamp=9.0))
        victim.tree.note_uplink(4, via_child=4)
        victim._recent_by_attr[0].add(9.0, 5)
        victim.readings_since_summary = 4
        net.fail_node(victim.node_id)
        net.run(40.0)
        net.revive_node(victim.node_id)
        assert victim.booted
        # RAM state gone, flash intact.
        assert victim.tree.parent is None
        assert victim.tree.descendants() == []
        assert len(victim.linkest) == 0
        assert victim.index_for(0) is None
        assert len(victim._recent_by_attr[0]) == 0
        assert victim.readings_since_summary == 0
        assert len(victim.flash) == 1
        # It rejoins the tree from fresh beacons.
        net.run(net.sim.now + 60.0)
        assert victim.tree.joined

    def test_dead_node_does_not_answer_queries(self, perfect6):
        net, base, nodes = perfect6
        net.boot_all(within=1.0)
        net.run(60.0)
        victim, witness = nodes[0], nodes[1]
        net.fail_node(victim.node_id)
        net.run(70.0)
        from repro.core.query import Query

        result = base.issue_query(
            Query(
                query_id=901,
                time_range=(0.0, 200.0),
                node_list=frozenset({victim.node_id, witness.node_id}),
            )
        )
        net.run(net.sim.now + base.config.query_reply_window + 2.0)
        # A live node replies even with no matching tuples; the dead one
        # never does.
        assert witness.node_id in result.nodes_replied
        assert victim.node_id not in result.nodes_replied


class TestTrackerSurvival:
    def test_downtime_intervals(self):
        tracker = DeliveryTracker()
        tracker.node_failed(4, 100.0)
        assert tracker.node_down(4, 100.0)
        assert tracker.node_down(4, 500.0)
        assert not tracker.node_down(4, 99.9)
        tracker.node_revived(4, 200.0)
        assert tracker.node_down(4, 150.0)
        assert not tracker.node_down(4, 200.0)
        assert tracker.nodes_ever_failed() == {4}

    def test_completeness_excludes_dead_flash(self):
        tracker = DeliveryTracker()
        for i, target in enumerate((2, 2, 3, 3)):
            tracker.reading_produced(5, value=i, time=10.0 + i, intended_owner=target)
            tracker.reading_stored(5, i, 10.0 + i, stored_at=target, time=11.0 + i)
        tracker.reading_produced(5, value=9, time=20.0, intended_owner=2)  # lost
        tracker.node_failed(2, 50.0)
        assert tracker.retrieval_completeness(60.0) == pytest.approx(2 / 5)
        breakdown = tracker.survival_breakdown(60.0)
        assert breakdown["readings_produced"] == 5
        assert breakdown["readings_stored"] == 4
        assert breakdown["stored_on_dead_node"] == 2
        assert breakdown["retrievable"] == 2
        assert breakdown["nodes_failed"] == 1
        # Revival brings the flash back online.
        tracker.node_revived(2, 70.0)
        assert tracker.retrieval_completeness(80.0) == pytest.approx(4 / 5)


class TestStalenessEviction:
    def _stats(self, **config_kw):
        config = ScoopConfig(
            n_nodes=6,
            domain=ValueDomain(0, 20),
            summary_interval=20.0,
            node_staleness_intervals=2.0,
            **config_kw,
        )
        return BasestationStatistics(config)

    def _summary(self, origin):
        from repro.core.histogram import Histogram

        values = [5, 6, 7]
        block = AttributeSummary(
            attr=0,
            histogram=Histogram.from_values(values, 3),
            min_value=5,
            max_value=7,
            sum_values=18,
            last_sid=-1,
        )
        return SummaryMessage(
            origin=origin, readings_since_last=3, neighbors=(), blocks=(block,)
        )

    def test_silent_nodes_leave_the_filtered_views(self):
        stats = self._stats()
        stats.ingest_summary(self._summary(1), now=100.0)
        stats.ingest_summary(self._summary(2), now=150.0)
        # At t=130 both are fresh (window = 2 * 20 s = 40 s).
        assert stats.producer_nodes(130.0) == [1, 2]
        # At t=170 node 1 (last heard 100) is stale, node 2 fresh.
        assert stats.producer_nodes(170.0) == [2]
        assert 1 not in stats.known_nodes(170.0)
        assert stats.stale_nodes(170.0) == {1}
        # The unfiltered historical views never forget.
        assert stats.producer_nodes() == [1, 2]
        assert 1 in stats.known_nodes()

    def test_packet_headers_keep_nodes_alive(self):
        stats = self._stats()
        stats.ingest_summary(self._summary(1), now=100.0)
        stats.observe_packet_header(origin=1, origin_parent=3, now=190.0)
        # Header evidence refreshed node 1 (and its parent 3).
        assert stats.producer_nodes(200.0) == [1]
        assert 3 in stats.known_nodes(200.0)
        assert stats.stale_nodes(200.0) == set()

    def test_hearsay_grants_a_grace_window_but_never_refreshes(self):
        stats = self._stats()
        summary = self._summary(1)
        summary = dataclasses.replace(summary, neighbors=((7, 0.9),))
        stats.ingest_summary(summary, now=100.0)
        # Node 7 is known only from node 1's neighbor report: it gets a
        # full staleness window of candidacy from first sighting...
        assert 7 in stats.known_nodes(130.0)
        # ...but repeated hearsay does not keep it alive past the window
        # (neighbor tables report dead nodes for a while).
        later = dataclasses.replace(self._summary(1), neighbors=((7, 0.9),))
        stats.ingest_summary(later, now=139.0)
        assert 7 not in stats.known_nodes(141.0)
        assert 7 in stats.stale_nodes(141.0)

    def test_basestation_is_always_fresh(self):
        stats = self._stats()
        assert 0 in stats.known_nodes(1e9)


class TestChurnSpecWiring:
    def _spec(self, **kw):
        config = ScoopConfig(
            n_nodes=10,
            domain=ValueDomain(0, 20),
            stabilization=100.0,
            duration=200.0,
        )
        return ExperimentSpec(
            policy="scoop", workload="gaussian", scoop=config, seed=3, **kw
        )

    def test_zero_churn_builds_no_schedule(self):
        assert build_failure_schedule(self._spec()) is None

    def test_schedule_window_tracks_the_measured_phase(self):
        spec = self._spec(churn_rate=0.5)
        schedule = build_failure_schedule(spec)
        assert schedule is not None
        assert len(schedule) == round(0.5 * 9)
        for event in schedule:
            assert 100.0 + 0.1 * 200.0 <= event.at <= 100.0 + 0.5 * 200.0

    def test_churn_fields_validated(self):
        with pytest.raises(ValueError, match="churn_rate"):
            self._spec(churn_rate=1.5)
        with pytest.raises(ValueError, match="churn_revive_frac"):
            self._spec(churn_revive_frac=-0.1)
        with pytest.raises(ValueError, match="churn_downtime_frac"):
            self._spec(churn_downtime_frac=0.0)

    def test_churn_fields_enter_the_cache_key(self):
        from repro.experiments.runner import spec_key

        base = self._spec()
        churned = self._spec(churn_rate=0.2)
        assert spec_key(base) != spec_key(churned)

    def test_injector_arms_once(self, perfect6):
        net, _base, _nodes = perfect6
        schedule = FailureSchedule([FailureEvent(2, at=50.0)])
        injector = FailureInjector(net, schedule)
        injector.arm()
        with pytest.raises(RuntimeError, match="armed"):
            injector.arm()

    def test_injector_kills_and_revives_on_schedule(self, perfect6):
        net, _base, nodes = perfect6
        net.boot_all(within=1.0)
        schedule = FailureSchedule([FailureEvent(3, at=30.0, revive_at=60.0)])
        injector = FailureInjector(net, schedule)
        injector.arm()
        net.run(40.0)
        assert not net.motes[3].booted
        assert net.tracker.node_down(3, net.sim.now)
        net.run(70.0)
        assert net.motes[3].booted
        assert not net.tracker.node_down(3, net.sim.now)
        assert injector.kills == 1 and injector.revives == 1
