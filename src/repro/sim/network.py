"""Network assembly: kernel + radio + accounting + motes, ready to run.

:class:`Network` wires together everything a scenario needs: the event
kernel, the lossy radio (which bills every transmission to the network's
census and energy meter), and the application motes. Experiment runners
build one Network per trial, boot it, run the paper's 10-minute tree
stabilization period, then run the measured workload phase.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.energy import EnergyMeter
from repro.sim.kernel import Simulator
from repro.sim.metrics import DeliveryTracker, MessageCensus
from repro.sim.mote import Mote
from repro.sim.radio import Radio
from repro.sim.topology import Topology


class Network:
    """A fully wired simulated sensor network."""

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.sim = Simulator(seed=seed)
        self.census = MessageCensus()
        self.energy = EnergyMeter()
        self.tracker = DeliveryTracker()
        self.radio = Radio(self.sim, topology, self.census, self.energy)
        self.motes: Dict[int, Mote] = {}

    # ------------------------------------------------------------------
    # Population and execution
    # ------------------------------------------------------------------
    def add_mote(self, mote: Mote) -> Mote:
        if mote.node_id in self.motes:
            raise ValueError(f"duplicate mote id {mote.node_id}")
        self.motes[mote.node_id] = mote
        return mote

    def boot_all(self, within: float = 5.0) -> None:
        """Boot every mote at a random offset in ``[0, within)`` seconds,
        de-synchronizing their timers as real deployments do."""
        for mote in self.motes.values():
            mote.boot(delay=self.sim.rng.uniform(0.0, within))

    def fail_node(self, node_id: int) -> None:
        """Kill a mote: radio dark, CPU halted, flash orphaned. The rest
        of the network reacts organically (silence timeouts, tree repair);
        nothing is reset on its behalf."""
        mote = self.motes[node_id]
        if mote.is_root:
            raise ValueError("cannot kill the basestation (node 0)")
        self.radio.fail_node(node_id)
        mote.fail()
        self.tracker.node_failed(node_id, self.sim.now)

    def revive_node(self, node_id: int) -> None:
        """Cold-reboot a previously killed mote (flash contents intact)."""
        self.radio.revive_node(node_id)
        self.motes[node_id].revive()
        self.tracker.node_revived(node_id, self.sim.now)

    def run(self, until: float) -> None:
        self.sim.run(until)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def tree_converged(self) -> bool:
        """True when every booted node has joined the routing tree."""
        return all(m.tree.joined for m in self.motes.values() if m.booted)
