"""The storage index: a value -> owner-node mapping (Section 4, Figure 1).

A storage index tells every node where each attribute value must be stored
during the index's activity period. This module covers the data structure
and its wire representation:

* **compaction** — "the storage index is compacted by coalescing
  consecutive values that map to the same node into a single value range to
  node mapping" (Section 5.3);
* **chunking** — the compacted ranges are split into
  :class:`~repro.core.messages.MappingChunk` packets for Trickle
  dissemination, and reassembled on the other side;
* **similarity** — the fraction of the domain mapped identically by two
  indices, which the basestation uses to suppress re-dissemination of
  near-identical indices;
* the **owner-set extension** (Section 4, Extensions): a value may map to a
  small set of candidate owners; producers pick the nearest.

Index IDs (``sid``) are issued monotonically by the basestation; nodes only
ever *use* a complete index, falling back to their previous complete one
while chunks of a newer index trickle in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.config import ValueDomain
from repro.core.messages import MAX_ENTRIES_PER_CHUNK, MappingChunk

#: Sentinel owner meaning "every producer stores this value locally".
#: Used when the basestation's store-local fallback (Section 4) wins the
#: cost comparison: the disseminated index maps the whole domain to this
#: pseudo-node and nodes keep their own readings.
STORE_LOCAL = -2


@dataclass(frozen=True)
class RangeEntry:
    """One compacted mapping row: values in [lo, hi] belong to ``owners``."""

    lo: int
    hi: int
    owners: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")
        if not self.owners:
            raise ValueError("range entry needs at least one owner")


class StorageIndex:
    """An immutable value -> owner(s) mapping for one attribute."""

    def __init__(
        self,
        sid: int,
        domain: ValueDomain,
        owners: Sequence[Tuple[int, ...]],
        attr: int = 0,
    ):
        if len(owners) != domain.size:
            raise ValueError(
                f"owners list has {len(owners)} entries for a domain of "
                f"{domain.size} values"
            )
        for owner_set in owners:
            if not owner_set:
                raise ValueError("every value needs at least one owner")
        self.sid = sid
        self.domain = domain
        #: attribute this index maps.
        self.attr = attr
        self._owners: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(o) for o in owners
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single_owner(
        cls,
        sid: int,
        domain: ValueDomain,
        owner_by_value: Sequence[int],
        attr: int = 0,
    ) -> "StorageIndex":
        return cls(sid, domain, [(o,) for o in owner_by_value], attr=attr)

    @classmethod
    def uniform(
        cls, sid: int, domain: ValueDomain, owner: int, attr: int = 0
    ) -> "StorageIndex":
        """Every value mapped to one node (owner=0 gives send-to-base)."""
        return cls(sid, domain, [(owner,)] * domain.size, attr=attr)

    def with_sid(self, sid: int) -> "StorageIndex":
        """This mapping re-stamped with a different index id (the
        basestation assigns final ids only to indexes it accepts for
        dissemination). Returns ``self`` when the id already matches."""
        if sid == self.sid:
            return self
        return StorageIndex(sid, self.domain, self._owners, attr=self.attr)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def owners_of(self, value: int) -> Tuple[int, ...]:
        return self._owners[self.domain.index_of(value)]

    def owner_of(self, value: int) -> int:
        """Primary owner (first of the owner set)."""
        return self.owners_of(value)[0]

    def all_owners(self) -> frozenset:
        return frozenset(o for owner_set in self._owners for o in owner_set)

    def owners_for_range(self, lo: int, hi: int) -> frozenset:
        """Every node owning any value in [lo, hi] ∩ domain."""
        lo = max(lo, self.domain.lo)
        hi = min(hi, self.domain.hi)
        found = set()
        for v in range(lo, hi + 1):
            found.update(self.owners_of(v))
        return frozenset(found)

    # ------------------------------------------------------------------
    # Compaction / chunking (wire format)
    # ------------------------------------------------------------------
    def compact(self) -> List[RangeEntry]:
        """Coalesce consecutive values with identical owner sets."""
        entries: List[RangeEntry] = []
        start = self.domain.lo
        current = self._owners[0]
        for i in range(1, self.domain.size):
            if self._owners[i] != current:
                entries.append(
                    RangeEntry(lo=start, hi=self.domain.lo + i - 1, owners=current)
                )
                start = self.domain.lo + i
                current = self._owners[i]
        entries.append(RangeEntry(lo=start, hi=self.domain.hi, owners=current))
        return entries

    def _wire_rows(self) -> List[Tuple[int, int, int]]:
        """Compacted (lo, hi, owner) wire rows, one per (range, owner)."""
        rows: List[Tuple[int, int, int]] = []
        for entry in self.compact():
            for owner in entry.owners:
                rows.append((entry.lo, entry.hi, owner))
        return rows

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def similarity(self, other: "StorageIndex") -> float:
        """Fraction of domain values mapped to identical owner sets."""
        if other.domain != self.domain:
            return 0.0
        same = sum(
            1
            for a, b in zip(self._owners, other._owners)
            if frozenset(a) == frozenset(b)
        )
        return same / self.domain.size

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StorageIndex)
            and self.sid == other.sid
            and self.attr == other.attr
            and self.domain == other.domain
            and self._owners == other._owners
        )

    def __hash__(self) -> int:
        return hash((self.sid, self.attr, self.domain, self._owners))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageIndex(sid={self.sid}, attr={self.attr}, "
            f"domain=[{self.domain.lo},{self.domain.hi}], "
            f"ranges={len(self.compact())})"
        )


# ----------------------------------------------------------------------
# Chunking: one Trickle wave carries every attribute's index (E15)
# ----------------------------------------------------------------------

def chunk_index_set(
    epoch: int,
    indexes: Mapping[int, StorageIndex],
    max_entries: int = MAX_ENTRIES_PER_CHUNK,
) -> List[MappingChunk]:
    """Chunk a whole per-attribute index set into ONE dissemination epoch.

    Every remap disseminates the complete current mapping — all
    attributes, changed or not — under a single Trickle version
    (``epoch``), so the gossip cost of k attributes is one wave, not k.
    Owner sets are flattened into one 5-byte wire row per (range, owner)
    pair. Chunks never span attributes, and chunk indices number the
    whole epoch consecutively so the disseminator's completeness bitmap
    works unchanged. A multi-attribute epoch tags each chunk with its
    attribute and that attribute's own index id; a one-attribute epoch
    sends the paper's untagged chunks, whose epoch is the index id.
    """
    tagged = len(indexes) > 1
    rows_by_attr = [
        (attr, indexes[attr]._wire_rows(), indexes[attr].sid if tagged else -1)
        for attr in sorted(indexes)
    ]
    counts = [
        max(1, (len(rows) + max_entries - 1) // max_entries)
        for _a, rows, _s in rows_by_attr
    ]
    total = sum(counts)
    chunks: List[MappingChunk] = []
    position = 0
    for (attr, rows, attr_sid), n_chunks in zip(rows_by_attr, counts):
        for k in range(n_chunks):
            chunks.append(
                MappingChunk(
                    sid=epoch,
                    index=position,
                    total=total,
                    entries=tuple(rows[k * max_entries : (k + 1) * max_entries]),
                    attr=attr,
                    attr_sid=attr_sid,
                )
            )
            position += 1
    return chunks


def indexes_from_chunks(
    domains: Mapping[int, ValueDomain], chunks: Iterable[MappingChunk]
) -> Dict[int, StorageIndex]:
    """Reassemble a complete epoch's chunk set into per-attribute indexes.

    ``domains`` maps attribute id -> configured domain
    (``ScoopConfig.domain_of``). Raises ``ValueError`` on missing or
    duplicate chunks, mixed epochs, unknown attributes, or incomplete
    per-attribute domain coverage — nodes must never act on a partial
    index (Section 5.3).
    """
    chunk_list = sorted(chunks, key=lambda c: c.index)
    if not chunk_list:
        raise ValueError("no chunks")
    epoch = chunk_list[0].sid
    total = chunk_list[0].total
    if any(c.sid != epoch or c.total != total for c in chunk_list):
        raise ValueError("chunks from different epochs")
    if [c.index for c in chunk_list] != list(range(total)):
        raise ValueError("missing or duplicate chunks")
    out: Dict[int, StorageIndex] = {}
    by_attr: Dict[int, List[MappingChunk]] = {}
    for chunk in chunk_list:
        by_attr.setdefault(chunk.attr, []).append(chunk)
    for attr, group in by_attr.items():
        if attr not in domains:
            raise ValueError(f"chunks for unknown attribute {attr}")
        domain = domains[attr]
        attr_sid = group[0].index_sid
        if any(c.index_sid != attr_sid for c in group):
            raise ValueError(f"attribute {attr} chunks mix index ids")
        owner_sets: List[List[int]] = [[] for _ in range(domain.size)]
        for chunk in group:
            for lo, hi, owner in chunk.entries:
                if lo < domain.lo or hi > domain.hi:
                    raise ValueError(
                        f"range [{lo},{hi}] outside attribute {attr} domain"
                    )
                for v in range(lo, hi + 1):
                    if owner not in owner_sets[v - domain.lo]:
                        owner_sets[v - domain.lo].append(owner)
        if any(not owners for owners in owner_sets):
            raise ValueError(
                f"chunk set does not cover attribute {attr}'s domain"
            )
        out[attr] = StorageIndex(
            attr_sid, domain, [tuple(o) for o in owner_sets], attr=attr
        )
    return out
