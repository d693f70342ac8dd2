"""Energy model: radio vs flash costs per node.

Constants follow Section 2.1 of the paper:

* writing one bit to a current-generation flash chip costs ~28 nJ;
* an 802.15.4-class radio consumes ~700 nJ per transmitted bit, i.e. radio
  is roughly two orders of magnitude more expensive than flash per bit;
* reads from flash are "substantially cheaper" than writes.

Reception is billed at the same per-bit rate as transmission — the paper
notes that BASE "requires the root to do a great deal of reception (which is
costly as the radio must be on at all times)", so received bits must carry a
cost for the root-skew experiment (E7) to make sense.

Per-node totals feed the paper's back-of-envelope lifetime comparison
(E7): "if a node running LOCAL can last for one month using a small
battery, an average SCOOP node would last for about three months, although
the battery on the root in SCOOP would have to be replaced every two
weeks."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

#: nanojoules per bit transmitted or received over the radio.
RADIO_NJ_PER_BIT = 700.0
#: nanojoules per bit written to flash.
FLASH_WRITE_NJ_PER_BIT = 28.0
#: nanojoules per bit read from flash ("reads are substantially cheaper").
FLASH_READ_NJ_PER_BIT = 3.0

NJ_PER_J = 1e9


@dataclass(slots=True)
class NodeEnergy:
    """Accumulated energy use of a single node, in nanojoules."""

    radio_tx_nj: float = 0.0
    radio_rx_nj: float = 0.0
    flash_write_nj: float = 0.0
    flash_read_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return (
            self.radio_tx_nj
            + self.radio_rx_nj
            + self.flash_write_nj
            + self.flash_read_nj
        )

    @property
    def total_j(self) -> float:
        return self.total_nj / NJ_PER_J


class EnergyMeter:
    """Network-wide per-node energy ledger, fed by the radio and flash."""

    __slots__ = ("_nodes",)

    def __init__(self) -> None:
        self._nodes: Dict[int, NodeEnergy] = {}

    def _node(self, node: int) -> NodeEnergy:
        if node not in self._nodes:
            self._nodes[node] = NodeEnergy()
        return self._nodes[node]

    def radio_tx(self, node: int, bits: int) -> None:
        self._node(node).radio_tx_nj += bits * RADIO_NJ_PER_BIT

    def radio_rx(self, node: int, bits: int) -> None:
        self._node(node).radio_rx_nj += bits * RADIO_NJ_PER_BIT

    def radio_rx_batch(self, nodes: "Iterable[int]", bits: int) -> None:
        """Bill one transmission's whole reception fan-out at once."""
        nj = bits * RADIO_NJ_PER_BIT
        ledger = self._nodes
        for node in nodes:
            entry = ledger.get(node)
            if entry is None:
                entry = ledger[node] = NodeEnergy()
            entry.radio_rx_nj += nj

    def flash_write(self, node: int, bits: int) -> None:
        self._node(node).flash_write_nj += bits * FLASH_WRITE_NJ_PER_BIT

    def flash_read(self, node: int, bits: int) -> None:
        self._node(node).flash_read_nj += bits * FLASH_READ_NJ_PER_BIT

    def node_energy(self, node: int) -> NodeEnergy:
        return self._node(node)

    def component_totals_j(self) -> Dict[str, float]:
        """Network-wide energy per component, in joules (the paper's radio
        vs flash cost split, Section 2.1)."""
        totals = {
            "radio_tx": 0.0,
            "radio_rx": 0.0,
            "flash_write": 0.0,
            "flash_read": 0.0,
        }
        for e in self._nodes.values():
            totals["radio_tx"] += e.radio_tx_nj
            totals["radio_rx"] += e.radio_rx_nj
            totals["flash_write"] += e.flash_write_nj
            totals["flash_read"] += e.flash_read_nj
        return {name: nj / NJ_PER_J for name, nj in totals.items()}

    def mean_node_j(self, exclude: tuple[int, ...] = ()) -> float:
        nodes = [n for n in self._nodes if n not in exclude]
        if not nodes:
            return 0.0
        return sum(self._nodes[n].total_j for n in nodes) / len(nodes)
