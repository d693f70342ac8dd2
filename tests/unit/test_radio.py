"""Unit tests for the radio medium: loss, ACKs, CSMA, collisions, snooping."""

import random
from collections import Counter

import pytest

from repro.sim.energy import RADIO_NJ_PER_BIT, EnergyMeter
from repro.sim.kernel import Simulator
from repro.sim.metrics import MessageCensus
from repro.sim.packets import BROADCAST, Frame, FrameKind
from repro.sim.radio import BITRATE_BPS, MAX_RETRIES, Radio, RadioStats, _SendEntry
from repro.sim.topology import grid, line, perfect
from tests.conftest import from_loss_matrix


class Listener:
    """Minimal RadioListener recording everything it hears."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []
        self.snooped = []

    def on_receive(self, frame):
        self.received.append(frame)

    def on_snoop(self, frame):
        self.snooped.append(frame)


def new_radio(sim, topology, census=None, energy=None):
    return Radio(sim, topology, census or MessageCensus(), energy or EnergyMeter())


def build(topology, seed=0, census=None, energy=None):
    sim = Simulator(seed=seed)
    radio = new_radio(sim, topology, census, energy)
    listeners = [Listener(i) for i in range(topology.n)]
    for listener in listeners:
        radio.register(listener)
    return sim, radio, listeners


def data_frame(src, dst, payload_bytes=10):
    class Payload:
        def wire_bytes(self):
            return payload_bytes

    return Frame(src=src, dst=dst, kind=FrameKind.DATA, payload=Payload())


class TestDelivery:
    def test_broadcast_reaches_all_on_perfect_channel(self):
        sim, radio, listeners = build(perfect(4))
        radio.broadcast(data_frame(0, BROADCAST))
        sim.run(1.0)
        for listener in listeners[1:]:
            assert len(listener.received) == 1

    def test_unicast_delivered_and_acked(self):
        sim, radio, listeners = build(perfect(3))
        outcome = []
        radio.unicast(data_frame(0, 1), done=outcome.append)
        sim.run(1.0)
        assert outcome == [True]
        assert len(listeners[1].received) == 1

    def test_unicast_to_unreachable_fails(self):
        topo = from_loss_matrix([[1.0, 1.0], [1.0, 1.0]])  # no links
        sim, radio, listeners = build(topo)
        outcome = []
        radio.unicast(data_frame(0, 1), done=outcome.append)
        sim.run(5.0)
        assert outcome == [False]
        assert listeners[1].received == []

    def test_total_loss_link_never_delivers(self):
        topo = from_loss_matrix([[1.0, 0.98], [0.98, 1.0]])
        sim, radio, listeners = build(topo, seed=1)
        successes = 0
        for _ in range(20):
            radio.broadcast(data_frame(0, BROADCAST))
            sim.run(sim.now + 1.0)
        assert len(listeners[1].received) < 10  # ~2% delivery

    def test_snoop_on_unicast_not_addressed_to_us(self):
        sim, radio, listeners = build(perfect(3))
        radio.unicast(data_frame(0, 1))
        sim.run(1.0)
        assert len(listeners[2].snooped) >= 1
        assert listeners[2].received == []

    def test_retransmission_until_ack(self):
        # Forward link good, reverse (ACK) link lossy: sender retries.
        topo = from_loss_matrix([[1.0, 0.0], [0.7, 1.0]])
        sim, radio, listeners = build(topo, seed=3)
        outcome = []
        radio.unicast(data_frame(0, 1), done=outcome.append)
        sim.run(5.0)
        assert radio.stats.frames_sent >= 1
        # dst certainly received (forward lossless)
        assert len(listeners[1].received) >= 1

    def test_max_retries_bounds_attempts(self):
        topo = from_loss_matrix([[1.0, 0.97], [0.97, 1.0]])
        sim, radio, listeners = build(topo, seed=5)
        outcome = []
        radio.unicast(data_frame(0, 1), done=outcome.append)
        sim.run(10.0)
        data_sends = radio.stats.frames_sent - radio.stats.acks_sent
        assert data_sends <= 1 + MAX_RETRIES


class TestQueueing:
    def test_sender_serialises_own_frames(self):
        sim, radio, listeners = build(perfect(2))
        for _ in range(5):
            radio.unicast(data_frame(0, 1))
        sim.run(5.0)
        assert len(listeners[1].received) == 5

    def test_unregistered_sender_rejected(self):
        sim = Simulator()
        radio = new_radio(sim, perfect(2))
        with pytest.raises(ValueError):
            radio.broadcast(data_frame(0, BROADCAST))

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        radio = new_radio(sim, perfect(2))
        radio.register(Listener(0))
        with pytest.raises(ValueError):
            radio.register(Listener(0))

    def test_broadcast_requires_broadcast_dst(self):
        sim, radio, _ = build(perfect(2))
        with pytest.raises(ValueError):
            radio.broadcast(data_frame(0, 1))

    def test_unicast_requires_concrete_dst(self):
        sim, radio, _ = build(perfect(2))
        with pytest.raises(ValueError):
            radio.unicast(data_frame(0, BROADCAST))


def start_at(sim, radio, time, src):
    """Put a 29-byte broadcast from ``src`` on the air at exactly ``time``,
    bypassing CSMA's random backoff; returns the frame's airtime."""
    frame = data_frame(src, BROADCAST, payload_bytes=29)
    sim.schedule_at(time, radio._start_transmission, src, _SendEntry(frame, None, 1))
    return frame.size_bits() / BITRATE_BPS


class TestCollisions:
    def test_hidden_terminal_collision(self):
        # 0 and 2 cannot hear each other but both reach 1: overlapping
        # transmissions corrupt each other there, one collision apiece.
        sim, radio, listeners = build(line(3))
        airtime = start_at(sim, radio, 0.0, 0)
        start_at(sim, radio, airtime / 2, 2)
        sim.run(1.0)
        assert radio.stats.collisions == 2
        assert radio.stats.frames_delivered == 0
        assert listeners[1].received == []

    def test_back_to_back_frames_do_not_collide(self):
        # Airtimes are half-open: a frame starting exactly when another
        # ends (before the first one's finish event runs) overlaps nothing.
        sim, radio, listeners = build(line(3))
        airtime = start_at(sim, radio, 0.0, 0)
        start_at(sim, radio, airtime, 2)
        sim.run(1.0)
        assert radio.stats.collisions == 0
        assert [f.src for f in listeners[1].received] == [0, 2]

    def test_carrier_sense_hears_only_audible_senders(self):
        sim, radio, _ = build(line(3))
        airtime = start_at(sim, radio, 0.0, 0)
        sensed = []
        sim.schedule_at(
            airtime / 4,
            lambda: sensed.extend(radio._channel_busy_until(n) for n in range(3)),
        )
        sim.run(1.0)
        # The sender does not sense itself, and 2 is out of 0's range.
        assert sensed == [airtime / 4, airtime, airtime / 4]

    def test_finished_transmissions_leave_the_air(self):
        sim, radio, _ = build(line(3))
        airtime = start_at(sim, radio, 0.0, 0)
        start_at(sim, radio, airtime / 2, 2)
        sim.run(1.0)
        assert radio._air == []

    def test_csma_avoids_mutually_audible_collisions(self):
        sim, radio, listeners = build(perfect(3), seed=11)
        for _ in range(10):
            radio.broadcast(data_frame(0, BROADCAST, payload_bytes=29))
            radio.broadcast(data_frame(1, BROADCAST, payload_bytes=29))
            sim.run(sim.now + 0.5)
        # With carrier sensing, most frames get through to node 2.
        assert len(listeners[2].received) >= 14

    def test_half_duplex_blocks_reception(self):
        sim, radio, listeners = build(perfect(3))
        # 0 and 1 transmit at the same instant: neither receives the other,
        # and a sender's own miss is not a collision. Only node 2, which
        # hears both, counts one collision per frame.
        start_at(sim, radio, 0.0, 0)
        start_at(sim, radio, 0.0, 1)
        sim.run(1.0)
        assert radio.stats.frames_sent == 2
        assert radio.stats.collisions == 2
        assert radio.stats.frames_delivered == 0
        assert all(listener.received == [] for listener in listeners)


class TestAccountingHooks:
    def test_on_transmit_counts_every_attempt(self):
        census, energy = MessageCensus(), EnergyMeter()
        topo = from_loss_matrix([[1.0, 0.9], [0.0, 1.0]])
        sim, radio, _ = build(topo, seed=17, census=census, energy=energy)
        radio.unicast(data_frame(0, 1))
        sim.run(5.0)
        assert census.sent[0][FrameKind.DATA] >= 1
        tx_nj = energy.node_energy(0).radio_tx_nj
        assert tx_nj == census.sent_bits[0] * RADIO_NJ_PER_BIT

    def test_on_delivery_reports_receiver(self):
        census, energy = MessageCensus(), EnergyMeter()
        sim, radio, _ = build(perfect(3), census=census, energy=energy)
        frame = data_frame(0, BROADCAST)
        radio.broadcast(frame)
        sim.run(1.0)
        for receiver in (1, 2):
            received = census.received[receiver][FrameKind.DATA]
            assert received == 1
            rx_nj = energy.node_energy(receiver).radio_rx_nj
            assert rx_nj == received * frame.size_bits() * RADIO_NJ_PER_BIT


class StreamSpy:
    """Wraps a radio's uniform stream, recording every ``take(k)`` size."""

    def __init__(self, stream):
        self._stream = stream
        self.takes = []

    def take(self, k):
        self.takes.append(k)
        return self._stream.take(k)

    def uniform(self, lo, hi):
        return self._stream.uniform(lo, hi)


class TestDrawDiscipline:
    def test_each_transmission_draws_once_per_audible_receiver(self):
        """Every transmission, DATA or ACK, takes exactly one loss
        uniform per audible receiver, even when a collision or a dead
        receiver decides the outcome before the draw is looked at."""
        off = 1.0
        # Out-degrees differ per sender (0: 3, 1: 2, 2: 1), so the
        # multiset of take sizes pins which transmissions drew. 0 and 2
        # cannot hear each other but both reach 1: a hidden terminal.
        topo = from_loss_matrix(
            [
                [off, 0.0, off, 0.0, 0.0],
                [0.0, off, 0.0, off, off],
                [off, 0.0, off, off, off],
                [off, off, off, off, off],
                [off, off, off, off, off],
            ]
        )
        census = MessageCensus()
        sim, radio, _ = build(topo, seed=7, census=census)
        spy = StreamSpy(radio._stream)
        radio._stream = spy
        radio.fail_node(3)  # one of node 0's receivers is dead
        for _ in range(3):
            radio.broadcast(data_frame(0, BROADCAST, payload_bytes=29))
            radio.broadcast(data_frame(2, BROADCAST, payload_bytes=29))
            sim.run(sim.now + 0.5)
        radio.unicast(data_frame(0, 1))
        sim.run(sim.now + 1.0)

        assert radio.stats.collisions >= 1
        assert set(census.sent_by_kind()) == {FrameKind.DATA, FrameKind.ACK}
        expected = Counter()
        for node, by_kind in census.sent.items():
            expected[len(radio._audible_ids[node])] += sum(by_kind.values())
        assert Counter(spy.takes) == expected


#: Frames each node of the pinned 6x6 grid heard (received + snooped),
#: one grid row per line.
# fmt: off
PINNED_HEARD = [
    27, 34, 39, 40, 39, 38,
    36, 60, 39, 62, 54, 46,
    45, 62, 67, 53, 63, 36,
    56, 53, 66, 68, 52, 35,
    35, 61, 65, 67, 50, 32,
    26, 47, 45, 44, 36, 24,
]
# fmt: on


class TestGoldenRadio:
    def test_busy_lossy_grid_is_pinned(self):
        """A seeded busy channel with hidden terminals, ACKs, retries and
        a node failing mid-run. Every pinned value is an integer, so the
        pin holds on every interpreter; a change to collision, carrier
        sense, loss draws, backoff or ACK handling moves some of them."""
        topo = grid(6, 6, link_loss=0.3)
        sim, radio, listeners = build(topo, seed=5)
        rng = random.Random(5)
        unicasts = []
        done = []
        for i in range(400):
            at = rng.uniform(0.0, 4.0)
            src = rng.randrange(topo.n)
            payload_bytes = rng.randint(5, 28)
            if rng.random() < 0.5:
                frame = data_frame(src, rng.choice(topo.neighbors(src)), payload_bytes)
                unicasts.append(i)
                sim.schedule_at(
                    at, radio.unicast, frame, lambda ok, i=i: done.append((i, ok))
                )
            else:
                frame = data_frame(src, BROADCAST, payload_bytes)
                sim.schedule_at(at, radio.broadcast, frame)
        sim.schedule_at(2.0, radio.fail_node, 3)
        sim.schedule_at(3.0, radio.revive_node, 3)
        sim.run(10.0)

        assert radio.stats == RadioStats(
            frames_sent=641,
            frames_delivered=1905,
            collisions=362,
            bernoulli_losses=822,
            csma_deferrals=57,
            unicast_failures=8,
            acks_sent=281,
        )
        assert len(unicasts) == 211
        assert sorted(i for i, _ok in done) == unicasts
        failed = [i for i, ok in sorted(done) if not ok]
        assert failed == [25, 119, 155, 231, 239, 253, 284, 350]
        heard = [len(n.received) + len(n.snooped) for n in listeners]
        assert heard == PINNED_HEARD
