"""Simulation substrate: a packet-level sensor-network simulator.

This subpackage is the TOSSIM-equivalent the reproduction runs on: a
deterministic discrete-event kernel, a lossy shared radio channel with CSMA
and collisions, topology generators matching the paper's simulated network,
the TinyOS-era protocol building blocks (tree routing, Trickle, snooping
link estimation), flash storage, and the message/energy accounting that
implements the paper's cost metric.
"""

from repro.sim.energy import EnergyMeter, NodeEnergy
from repro.sim.flash import Flash, RecentReadings, StoredReading
from repro.sim.kernel import EventHandle, SimulationError, Simulator, Timer
from repro.sim.linkest import LinkEstimator
from repro.sim.metrics import DeliveryTracker, MessageCensus
from repro.sim.mote import Mote
from repro.sim.network import Network
from repro.sim.packets import BROADCAST, COST_KINDS, Frame, FrameKind
from repro.sim.radio import Radio, RadioStats
from repro.sim.routing_tree import BeaconPayload, RoutingTree
from repro.sim.topology import (
    Topology,
    grid,
    indoor_testbed,
    line,
    perfect,
    random_geometric,
)
from repro.sim.trickle import Advertisement, ChunkDisseminator, Trickle

__all__ = [
    "Advertisement",
    "BROADCAST",
    "BeaconPayload",
    "COST_KINDS",
    "ChunkDisseminator",
    "DeliveryTracker",
    "EnergyMeter",
    "EventHandle",
    "Flash",
    "Frame",
    "FrameKind",
    "LinkEstimator",
    "MessageCensus",
    "Mote",
    "Network",
    "NodeEnergy",
    "Radio",
    "RadioStats",
    "RecentReadings",
    "RoutingTree",
    "SimulationError",
    "Simulator",
    "StoredReading",
    "Timer",
    "Topology",
    "Trickle",
    "grid",
    "indoor_testbed",
    "line",
    "perfect",
    "random_geometric",
]
