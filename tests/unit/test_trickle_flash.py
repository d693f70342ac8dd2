"""Unit tests for Trickle dissemination, flash storage and energy/metrics."""

from dataclasses import dataclass

import pytest

from repro.sim.energy import (
    FLASH_WRITE_NJ_PER_BIT,
    RADIO_NJ_PER_BIT,
    EnergyMeter,
)
from repro.sim.flash import Flash, RecentReadings, StoredReading
from repro.sim.kernel import Simulator
from repro.sim.metrics import DeliveryTracker, MessageCensus
from repro.sim.packets import Frame, FrameKind
from repro.sim.trickle import Advertisement, ChunkDisseminator, Trickle


@dataclass(frozen=True)
class FakeChunk:
    sid: int
    index: int
    total: int

    def wire_bytes(self):
        return 10


class TestTrickleTimer:
    def test_transmits_when_unsuppressed(self):
        sim = Simulator(seed=1)
        sent = []
        trickle = Trickle(sim, lambda: sent.append(sim.now), imin=1.0, imax=4.0, k=1)
        trickle.start()
        sim.run(20.0)
        assert len(sent) >= 3

    def test_interval_doubles_to_imax(self):
        sim = Simulator(seed=2)
        trickle = Trickle(sim, lambda: None, imin=1.0, imax=8.0)
        trickle.start()
        sim.run(40.0)
        assert trickle.interval == 8.0

    def test_suppression_with_k(self):
        sim = Simulator(seed=3)
        sent = []
        trickle = Trickle(sim, lambda: sent.append(1), imin=1.0, imax=1.0, k=1)
        trickle.start()

        def chatter():
            trickle.heard_consistent()
            sim.schedule(0.2, chatter)

        sim.schedule(0.01, chatter)
        sim.run(20.0)
        assert trickle.suppressions > 0
        assert len(sent) < 5

    def test_inconsistent_resets_interval(self):
        sim = Simulator(seed=4)
        trickle = Trickle(sim, lambda: None, imin=1.0, imax=16.0)
        trickle.start()
        sim.run(40.0)
        assert trickle.interval == 16.0
        trickle.heard_inconsistent()
        assert trickle.interval == 1.0

    def test_stop_halts(self):
        sim = Simulator(seed=5)
        sent = []
        trickle = Trickle(sim, lambda: sent.append(1), imin=1.0, imax=1.0, k=9)
        trickle.start()
        sim.run(3.0)
        trickle.stop()
        count = len(sent)
        sim.run(10.0)
        assert len(sent) == count

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            Trickle(Simulator(), lambda: None, imin=0.0, imax=1.0)
        with pytest.raises(ValueError):
            Trickle(Simulator(), lambda: None, imin=2.0, imax=1.0)


def make_disseminator(sim, outbox_advert, outbox_chunk, completed):
    return ChunkDisseminator(
        sim,
        send_advert=outbox_advert.append,
        send_chunk=outbox_chunk.append,
        on_complete=lambda sid, chunks: completed.append((sid, len(chunks))),
        imin=0.5,
        imax=4.0,
    )


class TestChunkDisseminator:
    def test_seed_installs_version(self):
        sim = Simulator(seed=6)
        d = make_disseminator(sim, [], [], [])
        chunks = [FakeChunk(1, i, 3) for i in range(3)]
        d.seed(1, chunks)
        assert d.sid == 1
        assert d.complete

    def test_seed_must_be_newer(self):
        sim = Simulator(seed=6)
        d = make_disseminator(sim, [], [], [])
        d.seed(2, [FakeChunk(2, 0, 1)])
        with pytest.raises(ValueError):
            d.seed(1, [FakeChunk(1, 0, 1)])

    def test_receiving_all_chunks_completes_once(self):
        sim = Simulator(seed=7)
        completed = []
        d = make_disseminator(sim, [], [], completed)
        for i in range(3):
            d.on_chunk(FakeChunk(5, i, 3))
        d.on_chunk(FakeChunk(5, 1, 3))  # duplicate
        assert completed == [(5, 3)]

    def test_newer_version_discards_partial_old(self):
        sim = Simulator(seed=8)
        completed = []
        d = make_disseminator(sim, [], [], completed)
        d.on_chunk(FakeChunk(1, 0, 2))
        d.on_chunk(FakeChunk(2, 0, 1))  # newer, single-chunk version
        assert completed == [(2, 1)]
        assert d.sid == 2

    def test_stale_chunk_ignored(self):
        sim = Simulator(seed=9)
        completed = []
        d = make_disseminator(sim, [], [], completed)
        d.on_chunk(FakeChunk(3, 0, 1))
        d.on_chunk(FakeChunk(1, 0, 1))  # old version
        assert d.sid == 3

    def test_peer_behind_triggers_chunk_send(self):
        sim = Simulator(seed=10)
        chunk_out = []
        d = make_disseminator(sim, [], chunk_out, [])
        d.seed(4, [FakeChunk(4, 0, 2), FakeChunk(4, 1, 2)])
        d.on_advert(Advertisement(sid=3, have=frozenset({0}), total=1))
        sim.run(2.0)
        assert len(chunk_out) >= 1

    def test_matching_advert_is_consistent(self):
        sim = Simulator(seed=11)
        d = make_disseminator(sim, [], [], [])
        d.seed(4, [FakeChunk(4, 0, 1)])
        before = d.trickle.interval
        d.on_advert(Advertisement(sid=4, have=frozenset({0}), total=1))
        assert d.trickle._counter >= 1  # counted as consistent


class TestRecentReadings:
    def test_ring_keeps_latest(self):
        ring = RecentReadings(capacity=3)
        for i in range(5):
            ring.add(float(i), i)
        assert sorted(ring.values()) == [2, 3, 4]
        assert len(ring) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RecentReadings(0)


class TestFlash:
    def test_store_and_scan(self):
        flash = Flash(capacity_readings=100)
        flash.store(StoredReading(origin=1, value=10, timestamp=1.0))
        flash.store(StoredReading(origin=2, value=20, timestamp=2.0))
        hits = flash.scan(value_range=(15, 25))
        assert [r.value for r in hits] == [20]

    def test_time_range_scan(self):
        flash = Flash()
        for t in range(10):
            flash.store(StoredReading(origin=1, value=t, timestamp=float(t)))
        hits = flash.scan(time_range=(3.0, 5.0))
        assert [r.value for r in hits] == [3, 4, 5]

    def test_predicate_scan(self):
        flash = Flash()
        flash.store(StoredReading(origin=1, value=5, timestamp=0.0))
        flash.store(StoredReading(origin=2, value=5, timestamp=0.0))
        hits = flash.scan(predicate=lambda r: r.origin == 2)
        assert len(hits) == 1

    def test_circular_overwrite(self):
        flash = Flash(capacity_readings=3)
        for i in range(5):
            flash.store(StoredReading(origin=1, value=i, timestamp=float(i)))
        assert len(flash) == 3
        assert flash.overwrites == 2
        values = {r.value for r in flash.all_readings()}
        assert values == {2, 3, 4}

    def test_energy_billing(self):
        meter = EnergyMeter()
        flash = Flash(meter=meter, node_id=3)
        flash.store(StoredReading(origin=3, value=1, timestamp=0.0))
        assert meter.node_energy(3).flash_write_nj == pytest.approx(
            12 * FLASH_WRITE_NJ_PER_BIT
        )


class TestEnergyMeter:
    def test_radio_dominates_flash(self):
        meter = EnergyMeter()
        meter.radio_tx(1, 96)
        meter.flash_write(1, 96)
        node = meter.node_energy(1)
        assert node.radio_tx_nj == pytest.approx(96 * RADIO_NJ_PER_BIT)
        assert node.radio_tx_nj > 20 * node.flash_write_nj

    def test_mean_excludes(self):
        meter = EnergyMeter()
        meter.radio_tx(0, 10_000)
        meter.radio_tx(1, 100)
        meter.radio_tx(2, 100)
        assert meter.mean_node_j(exclude=(0,)) == pytest.approx(
            meter.node_energy(1).total_j
        )


class TestMessageCensus:
    def _frame(self, kind=FrameKind.DATA):
        return Frame(src=1, dst=2, kind=kind, payload=None)

    def _transmit(self, census, node, kind=FrameKind.DATA):
        census.record_transmit(node, kind, self._frame(kind).size_bits())

    def test_breakdown_categories(self):
        census = MessageCensus()
        self._transmit(census, 1, FrameKind.DATA)
        self._transmit(census, 1, FrameKind.SUMMARY)
        self._transmit(census, 2, FrameKind.QUERY)
        self._transmit(census, 3, FrameKind.REPLY)
        breakdown = census.breakdown()
        assert breakdown == {
            "data": 1,
            "summary": 1,
            "mapping": 0,
            "query/reply": 2,
        }

    def test_beacons_and_acks_excluded_from_cost(self):
        census = MessageCensus()
        self._transmit(census, 1, FrameKind.BEACON)
        self._transmit(census, 1, FrameKind.ACK)
        self._transmit(census, 1, FrameKind.DATA)
        assert census.total_sent() == 1

    def test_per_node_counters(self):
        census = MessageCensus()
        self._transmit(census, 4)
        census.record_delivery(4, 5, self._frame())
        assert census.node_sent(4) == 1
        assert census.node_received(5) == 1

    def test_skew(self):
        census = MessageCensus()
        for _ in range(9):
            self._transmit(census, 0)
        self._transmit(census, 1)
        assert census.skew() == pytest.approx(9 / 5)


class TestDeliveryTracker:
    def test_storage_success(self):
        tracker = DeliveryTracker()
        tracker.reading_produced(1, 10, 0.0, intended_owner=2)
        tracker.reading_produced(1, 11, 1.0, intended_owner=2)
        tracker.reading_stored(1, 10, 0.0, stored_at=2, time=0.5)
        assert tracker.storage_success_rate() == pytest.approx(0.5)

    def test_owner_hit_rate(self):
        tracker = DeliveryTracker()
        tracker.reading_produced(1, 10, 0.0, intended_owner=2)
        tracker.reading_stored(1, 10, 0.0, stored_at=0, time=0.5)  # root fallback
        tracker.reading_produced(1, 11, 1.0, intended_owner=2)
        tracker.reading_stored(1, 11, 1.0, stored_at=2, time=1.5)
        assert tracker.owner_hit_rate() == pytest.approx(0.5)

    def test_query_reply_rate(self):
        tracker = DeliveryTracker()
        tracker.query_issued(1, 0.0, nodes_targeted=4)
        tracker.query_reply(1, tuples_returned=3)
        tracker.query_reply(1, tuples_returned=0)
        assert tracker.query_reply_rate() == pytest.approx(0.5)

    def test_duplicate_store_ignored(self):
        tracker = DeliveryTracker()
        tracker.reading_produced(1, 10, 0.0, intended_owner=2)
        tracker.reading_stored(1, 10, 0.0, stored_at=2, time=0.5)
        tracker.reading_stored(1, 10, 0.0, stored_at=3, time=0.9)  # dup
        assert tracker.storage_success_rate() == 1.0
        assert tracker.readings[0].stored_at == 2
