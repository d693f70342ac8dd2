"""Shared fixtures and helpers for the test suite."""

from typing import List, Optional, Sequence, Tuple

import pytest

from repro.core.basestation import Basestation
from repro.core.config import ScoopConfig, ValueDomain
from repro.core.node import ScoopNode
from repro.service.api import ProtocolError
from repro.service.protocol import Frame, FrameDecoder
from repro.sim.network import Network
from repro.sim.topology import Topology, perfect


def from_loss_matrix(loss: Sequence[Sequence[float]]) -> Topology:
    """A topology from an explicit directed loss matrix."""
    return Topology(n=len(loss), loss=loss)


def decode_frames(data: bytes) -> List[Frame]:
    """Decode a complete byte string into its frames; bytes left over
    after the last complete frame raise :class:`ProtocolError`."""
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    if decoder.buffered:
        raise ProtocolError(
            f"{decoder.buffered} trailing bytes after the last complete frame"
        )
    return frames


def build_scoop_network(
    topology: Topology,
    config: Optional[ScoopConfig] = None,
    seed: int = 1,
    source=None,
) -> Tuple[Network, Basestation, List[ScoopNode]]:
    """A fully wired Scoop network over ``topology`` (node 0 = base)."""
    config = config or ScoopConfig(n_nodes=topology.n, domain=ValueDomain(0, 100))
    net = Network(topology, seed=seed)
    base = Basestation(
        net.sim, net.radio, config, tracker=net.tracker, energy=net.energy
    )
    nodes = [
        ScoopNode(
            i,
            net.sim,
            net.radio,
            config,
            source=source,
            tracker=net.tracker,
            energy=net.energy,
        )
        for i in config.sensor_ids
    ]
    net.add_mote(base)
    for node in nodes:
        net.add_mote(node)
    return net, base, nodes


@pytest.fixture
def small_config():
    """A 6-node config with short timers for fast protocol tests."""
    return ScoopConfig(
        n_nodes=6,
        domain=ValueDomain(0, 100),
        sample_interval=5.0,
        query_interval=10.0,
        summary_interval=20.0,
        remap_interval=40.0,
        stabilization=60.0,
        duration=200.0,
        beacon_interval=5.0,
        query_reply_window=8.0,
    )


@pytest.fixture
def perfect6(small_config):
    """6 nodes, fully connected lossless radio, Scoop stack installed."""
    topo = perfect(6)
    return build_scoop_network(topo, config=small_config)
