"""Unit tests for the storage index: lookup, compaction, chunking."""

import pytest

from repro.core.config import ValueDomain
from repro.core.messages import MAX_ENTRIES_PER_CHUNK
from repro.core.storage_index import (
    STORE_LOCAL,
    RangeEntry,
    StorageIndex,
    chunk_index_set,
    indexes_from_chunks,
)


DOMAIN = ValueDomain(0, 9)


def chunk(index, max_entries=MAX_ENTRIES_PER_CHUNK):
    """The chunks of a one-attribute epoch carrying ``index``."""
    return chunk_index_set(index.sid, {0: index}, max_entries)


def rebuild(chunks):
    """Reassemble single-attribute chunks through the decoder nodes run."""
    return indexes_from_chunks({0: DOMAIN}, chunks)[0]


def simple_index(sid=1):
    owners = [1, 1, 1, 2, 2, 3, 3, 3, 3, 1]
    return StorageIndex.single_owner(sid, DOMAIN, owners)


class TestLookup:
    def test_owner_of(self):
        index = simple_index()
        assert index.owner_of(0) == 1
        assert index.owner_of(4) == 2
        assert index.owner_of(8) == 3

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            simple_index().owner_of(10)

    def test_owners_for_range(self):
        index = simple_index()
        assert index.owners_for_range(3, 6) == frozenset({2, 3})
        assert index.owners_for_range(-5, 100) == frozenset({1, 2, 3})

    def test_all_owners(self):
        assert simple_index().all_owners() == frozenset({1, 2, 3})

    def test_uniform_is_send_to_base(self):
        index = StorageIndex.uniform(1, DOMAIN, 0)
        assert index.all_owners() == frozenset({0})
        assert simple_index().all_owners() != frozenset({0})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StorageIndex.single_owner(1, DOMAIN, [1, 2])

    def test_empty_owner_set_rejected(self):
        with pytest.raises(ValueError):
            StorageIndex(1, DOMAIN, [()] * DOMAIN.size)


class TestCompaction:
    def test_coalesces_consecutive(self):
        entries = simple_index().compact()
        assert [(e.lo, e.hi, e.owners) for e in entries] == [
            (0, 2, (1,)),
            (3, 4, (2,)),
            (5, 8, (3,)),
            (9, 9, (1,)),
        ]

    def test_single_owner_one_range(self):
        index = StorageIndex.uniform(1, DOMAIN, 7)
        entries = index.compact()
        assert len(entries) == 1
        assert entries[0] == RangeEntry(0, 9, (7,))

    def test_alternating_owners_max_ranges(self):
        owners = [1, 2] * 5
        index = StorageIndex.single_owner(1, DOMAIN, owners)
        assert len(index.compact()) == 10

    def test_range_entry_validation(self):
        with pytest.raises(ValueError):
            RangeEntry(5, 3, (1,))
        with pytest.raises(ValueError):
            RangeEntry(1, 2, ())


class TestChunking:
    def test_roundtrip(self):
        index = simple_index(sid=7)
        assert rebuild(chunk(index)) == index

    def test_chunk_size_limit(self):
        owners = list(range(1, 11))  # 10 distinct ranges
        index = StorageIndex.single_owner(3, DOMAIN, owners)
        chunks = chunk(index, max_entries=3)
        assert all(len(c.entries) <= 3 for c in chunks)
        assert rebuild(chunks) == index

    def test_default_chunk_capacity(self):
        index = simple_index()
        chunks = chunk(index)
        assert all(len(c.entries) <= MAX_ENTRIES_PER_CHUNK for c in chunks)

    def test_missing_chunk_rejected(self):
        index = StorageIndex.single_owner(1, DOMAIN, list(range(1, 11)))
        chunks = chunk(index, max_entries=2)
        with pytest.raises(ValueError, match="missing"):
            rebuild(chunks[:-1])

    def test_mixed_sids_rejected(self):
        a = chunk(simple_index(sid=1), max_entries=2)
        b = chunk(simple_index(sid=2), max_entries=2)
        with pytest.raises(ValueError, match="different epochs"):
            rebuild([b[0]] + a[1:])

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError, match="no chunks"):
            rebuild([])

    def test_owner_sets_roundtrip(self):
        owners = [(1, 2)] * 5 + [(3,)] * 5
        index = StorageIndex(4, DOMAIN, owners)
        rebuilt = rebuild(chunk(index))
        for v in DOMAIN:
            assert set(rebuilt.owners_of(v)) == set(index.owners_of(v))


class TestSimilarity:
    def test_identical_is_one(self):
        assert simple_index(1).similarity(simple_index(2)) == 1.0

    def test_disjoint_is_zero(self):
        a = StorageIndex.uniform(1, DOMAIN, 1)
        b = StorageIndex.uniform(2, DOMAIN, 2)
        assert a.similarity(b) == 0.0

    def test_partial(self):
        a = StorageIndex.single_owner(1, DOMAIN, [1] * 10)
        b = StorageIndex.single_owner(2, DOMAIN, [1] * 6 + [2] * 4)
        assert a.similarity(b) == pytest.approx(0.6)

    def test_different_domains_zero(self):
        a = StorageIndex.uniform(1, DOMAIN, 1)
        b = StorageIndex.uniform(1, ValueDomain(0, 4), 1)
        assert a.similarity(b) == 0.0

    def test_store_local_sentinel(self):
        index = StorageIndex.uniform(1, DOMAIN, STORE_LOCAL)
        assert STORE_LOCAL in index.owners_for_range(0, 9)


class TestValueDomain:
    def test_size_and_contains(self):
        d = ValueDomain(5, 9)
        assert d.size == 5
        assert 5 in d and 9 in d and 4 not in d

    def test_clamp(self):
        d = ValueDomain(0, 10)
        assert d.clamp(-5) == 0
        assert d.clamp(50) == 10
        assert d.clamp(7) == 7

    def test_index_of(self):
        d = ValueDomain(10, 20)
        assert d.index_of(10) == 0
        assert d.index_of(20) == 10
        with pytest.raises(ValueError):
            d.index_of(9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ValueDomain(5, 4)

    def test_iteration(self):
        assert list(ValueDomain(1, 3)) == [1, 2, 3]
