"""Property-based tests (hypothesis) for the multi-attribute schema.

Strategies generate whole multi-attribute :class:`ExperimentSpec`\\ s —
random attribute registries (names, domain shapes, k ∈ 1..4) — and
assert the invariants the E15 pipeline rests on: serialization
round-trips exactly, cache keys are deterministic and injective in the
registry, shared-epoch chunking is lossless for any owner layout, owner
lookup never crosses attributes, and the query generator only emits
in-domain queries for whatever registry it is handed.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AttributeSpec, ScoopConfig, ValueDomain
from repro.experiments.runner import ExperimentSpec, spec_key
from repro.workloads.queries import QueryGenerator, QueryPlanConfig

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
ATTR_NAMES = ("temperature", "light", "humidity", "voltage")


def domains(min_size=2, max_size=60):
    """Arbitrary small integer domains (offset lo exercised too)."""
    return st.tuples(
        st.integers(0, 10), st.integers(min_size - 1, max_size - 1)
    ).map(lambda t: ValueDomain(t[0], t[0] + t[1]))


@st.composite
def attribute_registries(draw, max_k=4):
    k = draw(st.integers(1, max_k))
    return tuple(
        AttributeSpec(ATTR_NAMES[i], draw(domains())) for i in range(k)
    )


@st.composite
def multi_attribute_specs(draw):
    attrs = draw(attribute_registries())
    scoop = ScoopConfig(
        n_nodes=draw(st.integers(4, 20)),
        domain=attrs[0].domain,
        attributes=attrs,
        sample_interval=draw(st.sampled_from((5.0, 15.0))),
    )
    plan = QueryPlanConfig(n_attributes=draw(st.integers(1, len(attrs))))
    return ExperimentSpec(
        policy=draw(st.sampled_from(("scoop", "local", "hash"))),
        workload=draw(st.sampled_from(("gaussian", "random", "unique"))),
        scoop=scoop,
        query_plan=plan,
        seed=draw(st.integers(0, 99)),
        hash_simulated=draw(st.booleans()),
    )


# ----------------------------------------------------------------------
# Spec schema properties
# ----------------------------------------------------------------------
@given(spec=multi_attribute_specs())
@settings(max_examples=60)
def test_spec_serialization_round_trips_exactly(spec):
    rebuilt = ExperimentSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.scoop.attributes == spec.scoop.attributes
    assert rebuilt.to_dict() == spec.to_dict()


@given(spec=multi_attribute_specs())
@settings(max_examples=60)
def test_spec_key_deterministic_and_registry_sensitive(spec):
    assert spec_key(spec) == spec_key(ExperimentSpec.from_dict(spec.to_dict()))
    if spec.scoop.n_attributes > 1:
        # dropping an attribute must change the trial's identity
        shrunk_cfg = dataclasses.replace(
            spec.scoop, attributes=spec.scoop.attributes[:-1]
        )
        shrunk_plan = QueryPlanConfig(
            n_attributes=min(
                spec.query_plan.n_attributes, shrunk_cfg.n_attributes
            )
        )
        shrunk = dataclasses.replace(
            spec, scoop=shrunk_cfg, query_plan=shrunk_plan
        )
        assert spec_key(shrunk) != spec_key(spec)


@given(spec=multi_attribute_specs())
@settings(max_examples=60)
def test_registry_views_consistent(spec):
    config = spec.scoop
    assert config.n_attributes == len(config.attribute_specs)
    for attr in config.attribute_ids:
        assert config.domain_of(attr) == config.attribute_specs[attr].domain


# ----------------------------------------------------------------------
# Shared-epoch chunking over arbitrary owner layouts
# ----------------------------------------------------------------------
@given(data=st.data(), registry=attribute_registries(max_k=3))
@settings(max_examples=40)
def test_epoch_chunking_round_trips_any_owner_layout(data, registry):
    from repro.core.storage_index import (
        StorageIndex,
        chunk_index_set,
        indexes_from_chunks,
    )

    indexes = {}
    for attr, spec in enumerate(registry):
        owners = data.draw(
            st.lists(
                st.integers(0, 12),
                min_size=spec.domain.size,
                max_size=spec.domain.size,
            )
        )
        indexes[attr] = StorageIndex.single_owner(
            sid=attr + 1, domain=spec.domain, owner_by_value=owners, attr=attr
        )
    epoch = data.draw(st.integers(len(registry) + 1, 500))
    if len(registry) == 1:
        # a one-attribute epoch is its index's id (untagged chunks)
        indexes[0] = indexes[0].with_sid(epoch)
    chunks = chunk_index_set(epoch, indexes)
    domains_map = {a: s.domain for a, s in enumerate(registry)}
    rebuilt = indexes_from_chunks(domains_map, chunks)
    assert rebuilt == indexes
    for attr, index in rebuilt.items():
        assert index.sid == indexes[attr].sid
        assert index.attr == attr


@given(data=st.data(), registry=attribute_registries(max_k=3))
@settings(max_examples=40)
def test_owner_lookup_never_crosses_attributes(data, registry):
    """An index only answers for its own domain: a value outside it (as
    happens when the wrong attribute's index is consulted) raises rather
    than silently returning some owner."""
    import pytest

    from repro.core.storage_index import StorageIndex

    indexes = {}
    for attr, spec in enumerate(registry):
        owner = data.draw(st.integers(1, 12))
        indexes[attr] = StorageIndex.uniform(1, spec.domain, owner, attr=attr)
    for attr, index in indexes.items():
        for v in (index.domain.lo, index.domain.hi):
            assert index.owners_of(v)
        for probe in (index.domain.lo - 1, index.domain.hi + 1):
            with pytest.raises(ValueError):
                index.owners_of(probe)


# ----------------------------------------------------------------------
# Query generation stays inside each attribute's domain
# ----------------------------------------------------------------------
@given(
    registry=attribute_registries(),
    seed=st.integers(0, 999),
    n_queries=st.integers(1, 30),
)
@settings(max_examples=60)
def test_generated_queries_always_in_their_attributes_domain(
    registry, seed, n_queries
):
    plan = QueryPlanConfig(n_attributes=len(registry))
    generator = QueryGenerator(
        plan,
        [spec.domain for spec in registry],
        sensor_ids=[1, 2, 3],
        rng=random.Random(seed),
    )
    for position in range(n_queries):
        query = generator.next_query(now=1000.0 + position)
        assert query.attr == position % len(registry)
        lo, hi = query.value_range
        domain = registry[query.attr].domain
        assert lo in domain and hi in domain
