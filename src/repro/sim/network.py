"""Network assembly: kernel + radio + accounting + motes, ready to run.

:class:`Network` wires together everything a scenario needs: the event
kernel, the lossy radio (with census and energy hooks attached so every
transmission is billed), and the application motes. Experiment runners
build one Network per trial, boot it, run the paper's 10-minute tree
stabilization period, then run the measured workload phase.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.energy import EnergyMeter
from repro.sim.kernel import Simulator
from repro.sim.metrics import DeliveryTracker, MessageCensus
from repro.sim.mote import Mote
from repro.sim.packets import Frame
from repro.sim.radio import Radio, RadioConfig
from repro.sim.topology import Topology


class Network:
    """A fully wired simulated sensor network."""

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        radio_config: Optional[RadioConfig] = None,
    ):
        self.topology = topology
        self.sim = Simulator(seed=seed)
        self.census = MessageCensus()
        self.energy = EnergyMeter()
        self.tracker = DeliveryTracker()
        self.radio = Radio(
            self.sim,
            topology,
            config=radio_config,
            on_transmit=self._on_transmit,
            on_deliveries=self._on_deliveries,
        )
        self.motes: Dict[int, Mote] = {}

    # ------------------------------------------------------------------
    # Accounting hooks
    # ------------------------------------------------------------------
    def _on_transmit(self, node: int, frame: Frame, bits: int) -> None:
        self.census.record_transmit(node, frame.kind, bits)
        self.energy.radio_tx(node, bits)

    def _on_deliveries(
        self, sender: int, receivers: list, frame: Frame, bits: int
    ) -> None:
        # Batched per transmission: one call for the whole reception
        # fan-out (see Radio's on_deliveries hook).
        self.census.record_deliveries(receivers, frame.kind, bits)
        self.energy.radio_rx_batch(receivers, bits)

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

    def run_for(self, duration: float) -> None:
        self.sim.run(self.sim.now + duration)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def tree_converged(self) -> bool:
        """True when every booted node has joined the routing tree."""
        return all(m.tree.joined for m in self.motes.values() if m.booted)
