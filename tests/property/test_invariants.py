"""Property-based tests (hypothesis) on the core data structures.

Each property is an invariant DESIGN.md commits to: histogram probabilities
behave like the paper's estimator, index compaction/chunking round-trips
exactly, the kernel orders events correctly, and the indexing algorithm's
choice is never worse than any single-owner alternative beyond the
configured tie tolerance.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.histogram import Histogram
from repro.core.storage_index import (
    StorageIndex,
    chunk_index_set,
    indexes_from_chunks,
)
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# Histogram properties
# ----------------------------------------------------------------------
values_strategy = st.lists(st.integers(0, 200), min_size=1, max_size=60)


@given(values=values_strategy, n_bins=st.integers(1, 16))
def test_histogram_total_equals_sample_count(values, n_bins):
    hist = Histogram.from_values(values, n_bins)
    assert hist.total == len(values)


@given(values=values_strategy, n_bins=st.integers(1, 16))
def test_histogram_probabilities_nonnegative_and_bounded(values, n_bins):
    hist = Histogram.from_values(values, n_bins)
    for v in range(min(values) - 2, max(values) + 3):
        p = hist.probability(v)
        assert 0.0 <= p <= 1.0


@given(values=values_strategy, n_bins=st.integers(1, 16))
def test_histogram_zero_outside_observed_range(values, n_bins):
    hist = Histogram.from_values(values, n_bins)
    assert hist.probability(min(values) - 1) == 0.0
    assert hist.probability(max(values) + 1) == 0.0


@given(values=values_strategy, n_bins=st.integers(1, 16))
@example(values=[0, 0, 10], n_bins=10)
def test_histogram_mass_sums_near_one(values, n_bins):
    """Σ_v P(v) over the observed range stays within the bound Section
    5.2's estimator implies. With bin width w ≥ 1 every bin holds ⌊w⌋ or
    ⌈w⌉ integers, each weighted 1/w, so the mass lies in
    [⌊w⌋/w, ⌈w⌉/w] (up to 1.818 at w = 1.1, the pinned example); with
    w < 1 the cap P(v|bin) ≤ 1 makes it exactly 1."""
    hist = Histogram.from_values(values, n_bins)
    total = sum(
        hist.probability(v) for v in range(min(values), max(values) + 1)
    )
    w = hist.bin_width
    lo, hi = (math.floor(w) / w, math.ceil(w) / w) if w >= 1 else (1.0, 1.0)
    assert lo - 1e-9 <= total <= hi + 1e-9


@given(values=values_strategy, n_bins=st.integers(1, 16))
def test_histogram_vector_consistent_with_scalar(values, n_bins):
    hist = Histogram.from_values(values, n_bins)
    lo, hi = min(values) - 3, max(values) + 3
    vec = hist.probability_vector(lo, hi)
    for v in range(lo, hi + 1):
        assert math.isclose(vec[v - lo], hist.probability(v), abs_tol=1e-12)


@given(values=values_strategy, n_bins=st.integers(1, 16))
def test_observed_values_have_positive_probability(values, n_bins):
    hist = Histogram.from_values(values, n_bins)
    for v in set(values):
        assert hist.probability(v) > 0.0


# ----------------------------------------------------------------------
# Storage index properties
# ----------------------------------------------------------------------
def owners_strategy(size):
    return st.lists(st.integers(0, 30), min_size=size, max_size=size)


@given(data=st.data(), domain_size=st.integers(1, 80))
def test_compaction_preserves_lookup(data, domain_size):
    domain = ValueDomain(0, domain_size - 1)
    owners = data.draw(owners_strategy(domain_size))
    index = StorageIndex.single_owner(1, domain, owners)
    entries = index.compact()
    # ranges tile the domain exactly, in order, without overlap
    assert entries[0].lo == domain.lo
    assert entries[-1].hi == domain.hi
    for a, b in zip(entries, entries[1:]):
        assert b.lo == a.hi + 1
    # every value's owner is preserved
    for entry in entries:
        for v in range(entry.lo, entry.hi + 1):
            assert index.owner_of(v) == entry.owners[0]


@given(
    data=st.data(),
    domain_size=st.integers(1, 80),
    max_entries=st.integers(1, 7),
)
def test_chunking_roundtrip_exact(data, domain_size, max_entries):
    domain = ValueDomain(0, domain_size - 1)
    owners = data.draw(owners_strategy(domain_size))
    index = StorageIndex.single_owner(3, domain, owners)
    chunks = chunk_index_set(3, {0: index}, max_entries)
    rebuilt = indexes_from_chunks({0: domain}, chunks)[0]
    assert rebuilt == index


@given(data=st.data(), domain_size=st.integers(1, 60))
def test_similarity_is_reflexive_and_symmetric(data, domain_size):
    domain = ValueDomain(0, domain_size - 1)
    a = StorageIndex.single_owner(1, domain, data.draw(owners_strategy(domain_size)))
    b = StorageIndex.single_owner(2, domain, data.draw(owners_strategy(domain_size)))
    assert a.similarity(a) == 1.0
    assert math.isclose(a.similarity(b), b.similarity(a))
    assert 0.0 <= a.similarity(b) <= 1.0


@given(data=st.data(), domain_size=st.integers(2, 60))
def test_owners_for_range_is_union_of_points(data, domain_size):
    domain = ValueDomain(0, domain_size - 1)
    owners = data.draw(owners_strategy(domain_size))
    index = StorageIndex.single_owner(1, domain, owners)
    lo = data.draw(st.integers(domain.lo, domain.hi))
    hi = data.draw(st.integers(lo, domain.hi))
    expected = {index.owner_of(v) for v in range(lo, hi + 1)}
    assert index.owners_for_range(lo, hi) == frozenset(expected)


# ----------------------------------------------------------------------
# Kernel properties
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
def test_kernel_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run(101.0)
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=20),
)
def test_kernel_cancelled_events_never_fire(delays, cancel_mask):
    sim = Simulator()
    fired = []
    handles = []
    for i, d in enumerate(delays):
        handles.append(sim.schedule(d, fired.append, i))
    cancelled = set()
    for i, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            handle.cancel()
            cancelled.add(i)
    sim.run(60.0)
    assert set(fired) == set(range(len(delays))) - cancelled


# ----------------------------------------------------------------------
# Data-survival properties (failure injection, E14)
# ----------------------------------------------------------------------
@given(
    data=st.data(),
    n_readings=st.integers(1, 30),
    n_nodes=st.integers(2, 8),
)
def test_killed_nodes_flash_never_counted_retrievable(data, n_readings, n_nodes):
    """Whatever the interleaving of stores, kills, and revivals: a reading
    stored on a node that is dark at query time is never retrievable, a
    reading on a live (or revived) node always is, and the breakdown's
    counts are consistent."""
    from repro.sim.metrics import DeliveryTracker

    tracker = DeliveryTracker()
    nodes = list(range(1, n_nodes + 1))
    stored_at: list = []
    for i in range(n_readings):
        producer = data.draw(st.sampled_from(nodes), label="producer")
        tracker.reading_produced(producer, value=i, time=float(i), intended_owner=None)
        if data.draw(st.booleans(), label="stored"):
            target = data.draw(st.sampled_from(nodes), label="stored_at")
            tracker.reading_stored(
                producer, i, float(i), stored_at=target, time=float(i)
            )
            stored_at.append(target)
        else:
            stored_at.append(None)
    killed = data.draw(
        st.lists(st.sampled_from(nodes), unique=True, max_size=n_nodes),
        label="killed",
    )
    revived = set()
    for node in killed:
        tracker.node_failed(node, time=100.0)
        if data.draw(st.booleans(), label="revived"):
            tracker.node_revived(node, time=150.0)
            revived.add(node)
    query_time = 200.0
    down = set(killed) - revived
    for outcome, target in zip(tracker.readings, stored_at):
        expected = target is not None and target not in down
        assert tracker.reading_retrievable(outcome, query_time) == expected
    breakdown = tracker.survival_breakdown(query_time)
    stored_count = sum(1 for t in stored_at if t is not None)
    orphaned = sum(1 for t in stored_at if t is not None and t in down)
    assert breakdown["readings_produced"] == n_readings
    assert breakdown["readings_stored"] == stored_count
    assert breakdown["stored_on_dead_node"] == orphaned
    assert breakdown["retrievable"] == stored_count - orphaned
    assert breakdown["completeness"] == (stored_count - orphaned) / n_readings
    # During the downtime window even later-revived nodes are dark.
    for outcome, target in zip(tracker.readings, stored_at):
        if target in killed:
            assert not tracker.reading_retrievable(outcome, 120.0)


# ----------------------------------------------------------------------
# Indexing algorithm property: argmin optimality (within tie tolerance)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(3, 8),
)
def test_index_choice_beats_uniform_alternatives(seed, n_nodes):
    """The built index never costs more than mapping everything to any
    single node, beyond the configured tie tolerance."""
    import random

    from repro.core.cost_model import NetworkModel
    from repro.core.indexing import (
        INDEX_TIE_TOLERANCE,
        build_storage_index,
        evaluate_index_cost,
    )
    from repro.core.messages import AttributeSummary, SummaryMessage
    from repro.core.statistics import BasestationStatistics

    rng = random.Random(seed)
    domain = ValueDomain(0, 19)
    config = ScoopConfig(n_nodes=n_nodes, domain=domain)
    stats = BasestationStatistics(config)
    for node in range(1, n_nodes):
        center = rng.randint(0, 19)
        values = [
            domain.clamp(center + rng.randint(-2, 2)) for _ in range(10)
        ]
        stats.ingest_summary(
            SummaryMessage(
                origin=node,
                readings_since_last=5,
                neighbors=((max(0, node - 1), rng.uniform(0.5, 0.95)),),
                blocks=(
                    AttributeSummary(
                        attr=0,
                        histogram=Histogram.from_values(values, 5),
                        min_value=min(values),
                        max_value=max(values),
                        sum_values=sum(values),
                        last_sid=-1,
                    ),
                ),
            ),
            now=10.0 + node,
        )
    for _ in range(rng.randint(0, 5)):
        lo = rng.randint(0, 15)
        stats.record_query((lo, lo + 3), now=rng.uniform(10, 200))
    model = NetworkModel.from_statistics(stats)
    result = build_storage_index(1, stats, model, config, now=300.0)
    chosen = evaluate_index_cost(result.index, stats, model, config, 300.0)
    for node in range(n_nodes):
        uniform = StorageIndex.uniform(9, domain, node)
        alternative = evaluate_index_cost(uniform, stats, model, config, 300.0)
        assert chosen <= alternative * (1 + INDEX_TIE_TOLERANCE) + 1e-6
