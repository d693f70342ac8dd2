"""Workload abstractions: data sources feeding the simulated sensors.

A :class:`Workload` produces the value a given node reads at a given time.
Implementations must be:

* **deterministic** in ``(seed, node_id, time)`` so experiments are exactly
  repeatable;
* **stateless across calls** where possible (values derived functionally
  from time), so a workload can be sampled out of order — the analytical
  HASH baseline replays value streams without running the network.

The five workloads of the paper's experiment table (REAL, UNIQUE, EQUAL,
RANDOM, GAUSSIAN) live in :mod:`repro.workloads.synthetic` and
:mod:`repro.workloads.real_trace`.
"""

from __future__ import annotations

import abc
import hashlib
import random
from typing import Optional, Sequence

from repro.core.config import ValueDomain


class Workload(abc.ABC):
    """A per-node stream of sensor values over a common domain.

    ``positions`` (optional) are the nodes' physical coordinates from the
    topology; spatially-correlated workloads (the REAL trace) use them so
    that nearby nodes read similar values — the "geographic locality
    between values produced by nodes" the paper's index exploits.
    """

    #: short name used in experiment tables ("unique", "real", ...).
    name: str = "abstract"

    def __init__(
        self,
        domain: ValueDomain,
        n_nodes: int,
        seed: int = 0,
        positions: Optional[Sequence[tuple]] = None,
    ):
        self.domain = domain
        self.n_nodes = n_nodes
        self.seed = seed
        self.positions = list(positions) if positions is not None else None

    @abc.abstractmethod
    def sample(self, node_id: int, now: float) -> int:
        """The value node ``node_id`` reads at simulation time ``now``."""

    def sample_attr(self, node_id: int, now: float, attr: int) -> int:
        """The value of attribute ``attr`` at ``(node_id, now)``.

        Single-attribute workloads only answer for attribute 0; the
        multi-attribute wrapper (:mod:`repro.workloads.multi`) overrides
        this with one correlated stream per registered attribute.
        """
        if attr != 0:
            raise ValueError(
                f"workload {self.name!r} is single-attribute; "
                f"attribute {attr} requested"
            )
        return self.sample(node_id, now)

    # ------------------------------------------------------------------
    # Determinism helper
    # ------------------------------------------------------------------
    def _rng_for(self, *key: object) -> random.Random:
        """A PRNG deterministically derived from the workload seed and a
        structured key (e.g. node id, time bucket).

        Uses a stable digest rather than ``hash()``: Python salts string
        hashes per process, which would make value streams differ between
        runs of the same experiment.
        """
        material = repr((self.seed, self.name) + tuple(key)).encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))
