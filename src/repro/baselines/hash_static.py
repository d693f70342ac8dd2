"""The HASH baseline: static uniform value-to-node hashing (GHT-style).

Section 6 of the paper: "In HASH, a uniform, static hash function maps each
value to a node in the network where it is stored ... This approach is
similar to the proposal for geographic hash tables (GHTs)." The authors had
no any-to-any routing protocol, so "we evaluate the cost of this HASH
approach analytically" — :class:`AnalyticalHashModel` reproduces that
methodology: expected transmissions are computed from the ground-truth
topology ETX and a deterministic replay of the data and query streams,
without running the network.

As an extension this module also provides a *simulated* HASH
(:class:`HashNode` / :class:`HashBasestation`): Scoop's routing rules do
give approximate any-to-any delivery, so the static index can be
pre-installed on every node and run through the full simulator. The paper's
expectation — HASH costs about as much as BASE for storage, plus query
overhead — is checkable both ways.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Set

from repro.core.basestation import Basestation
from repro.core.config import ScoopConfig
from repro.core.node import ScoopNode
from repro.core.storage_index import StorageIndex
from repro.sim.topology import Topology
from repro.workloads.base import Workload
from repro.workloads.queries import QueryGenerator, QueryPlanConfig

#: Multiplier used when hashing values to sensors (a large odd constant
#: scrambles consecutive values across the node list).
_HASH_MULTIPLIER = 2_654_435_761


#: Salt stride separating per-attribute hash functions (E15): attribute
#: a's placement uses ``salt + a * _ATTR_SALT_STRIDE``, so attribute 0
#: keeps the paper's single-attribute mapping byte-for-byte.
_ATTR_SALT_STRIDE = 1_000_003


def hash_owner(value: int, sensors: Sequence[int], salt: int = 0) -> int:
    """The static uniform hash: value -> owning sensor node."""
    return sensors[((value + salt) * _HASH_MULTIPLIER) % (2**32) % len(sensors)]


def build_hash_index(
    config: ScoopConfig, salt: int = 0, sid: int = 1, attr: int = 0
) -> StorageIndex:
    """A fixed storage index implementing the static hash placement for
    one attribute."""
    sensors = list(config.sensor_ids)
    attr_salt = salt + attr * _ATTR_SALT_STRIDE
    domain = config.domain_of(attr)
    owners = [hash_owner(v, sensors, attr_salt) for v in domain]
    return StorageIndex.single_owner(sid, domain, owners, attr=attr)


def build_hash_indexes(
    config: ScoopConfig, salt: int = 0, sid: int = 1
) -> Dict[int, StorageIndex]:
    """One static index per registered attribute."""
    return {
        attr: build_hash_index(config, salt=salt, sid=sid, attr=attr)
        for attr in config.attribute_ids
    }


@dataclass
class HashCostEstimate:
    """Analytical message-count estimate, Figure 3 categories."""

    data: float
    query_reply: float

    @property
    def total(self) -> float:
        return self.data + self.query_reply

    def breakdown(self) -> Dict[str, float]:
        return {
            "data": self.data,
            "summary": 0.0,
            "mapping": 0.0,
            "query/reply": self.query_reply,
        }


class AnalyticalHashModel:
    """The paper's analytical evaluation of HASH.

    Data cost: every sample travels from its producer to its hashed owner
    along the ETX-optimal path. Query cost: every query travels from the
    basestation to each owner of a value in its range, and the reply comes
    back. Ground-truth topology ETX stands in for the routing protocol the
    authors did not have.
    """

    def __init__(
        self,
        topology: Topology,
        config: ScoopConfig,
        salt: int = 0,
    ):
        self.topology = topology
        self.config = config
        self.salt = salt
        self.sensors = [n for n in config.sensor_ids if n < topology.n]

    def owner_of(self, value: int, attr: int = 0) -> int:
        return hash_owner(value, self.sensors, self.salt + attr * _ATTR_SALT_STRIDE)

    def _finite_etx(self, src: int, dst: int) -> float:
        etx = self.topology.path_etx(src, dst)
        if math.isfinite(etx):
            return etx
        # Unreachable pair: charge a network-diameter-scale penalty rather
        # than infinity (the packet would be retried and dropped).
        return 2.0 * max(
            e
            for i in range(self.topology.n)
            if math.isfinite(e := self.topology.path_etx(i, 0))
        )

    def estimate(
        self,
        workload: Workload,
        query_plan: QueryPlanConfig,
        duration: float,
        seed: int = 0,
    ) -> HashCostEstimate:
        """Replay the experiment's data and query streams analytically."""
        config = self.config
        base = config.basestation_id
        data_cost = 0.0
        sample_times = [
            t * config.sample_interval
            for t in range(1, int(duration / config.sample_interval) + 1)
        ]
        for attr in config.attribute_ids:
            domain = config.domain_of(attr)
            for node in self.sensors:
                for t in sample_times:
                    value = domain.clamp(workload.sample_attr(node, t, attr))
                    owner = self.owner_of(value, attr)
                    if owner != node:
                        data_cost += self._finite_etx(node, owner)

        rng = random.Random(seed)
        generator = QueryGenerator(
            query_plan,
            [config.domain_of(a) for a in config.attribute_ids],
            self.sensors,
            rng,
        )
        query_cost = 0.0
        n_queries = int(duration / config.query_interval)
        for k in range(n_queries):
            now = (k + 1) * config.query_interval
            query = generator.next_query(now)
            if query.node_list is not None:
                owners: Set[int] = set(query.node_list)
            else:
                lo, hi = query.value_range
                owners = {
                    self.owner_of(v, query.attr) for v in range(lo, hi + 1)
                }
            for owner in owners:
                query_cost += self._finite_etx(base, owner) + self._finite_etx(
                    owner, base
                )
        return HashCostEstimate(data=data_cost, query_reply=query_cost)


class HashNode(ScoopNode):
    """Simulated HASH sensor: static pre-installed indexes, no statistics."""

    def __init__(self, *args, hash_indexes: Mapping[int, StorageIndex], **kwargs):
        super().__init__(*args, **kwargs)
        self._indexes = dict(hash_indexes)

    def on_boot(self) -> None:
        pass  # nothing to disseminate: the index is static

    def _start_summaries(self) -> None:
        pass  # HASH collects no statistics


class HashBasestation(Basestation):
    """Simulated HASH basestation: plans queries off the static indexes."""

    def __init__(self, *args, hash_indexes: Mapping[int, StorageIndex], **kwargs):
        super().__init__(*args, **kwargs)
        self._indexes = dict(hash_indexes)
        for attr, index in self._indexes.items():
            self.index_histories[attr].append((0.0, index))

    def on_boot(self) -> None:
        pass

    def start_scoop(self) -> None:
        pass  # the hash never adapts
