"""The storage-index construction algorithm (Figure 2 of the paper).

For every value ``v`` in the attribute domain, try every node ``o`` as
owner and charge it the expected message cost::

    cost(o, v) = Σ_p  P(p produces v) · rate_p · xmits(p -> o)
               +      P(user queries v) · query_rate · xmits(base -> o -> base)

then pick ``storage_index[v] = argmin_o cost(o, v)``. The paper notes the
complexity is O(V·n²) and "very practical" at V≈150, n=62; here the triple
loop is expressed as two matrix products so the same asymptotics run fast
enough to rebuild every simulated 240 s.

The algorithm satisfies the paper's four properties by construction:
P1 (higher data rate pulls values toward producers), P2 (higher query rate
pulls values toward the basestation), P3 (likely producers attract their
own values), P4 (xmits() penalises lossy paths).

Also implemented, from Section 4:

* the **store-local comparison** — "the basestation ... also evaluates the
  expected cost of a 'store-local' storage index and uses it if the
  expected cost is lower";
* the **owner-set extension** — up to ``max_owners_per_value`` owners per
  value, chosen greedily ("a more feasible approach is to consider only
  small owner sets"): producers then ship to the nearest owner, queries
  must visit every owner;
* the **range-placement extension** — place fixed-width value ranges
  instead of individual values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import ScoopConfig, ValueDomain
from repro.core.cost_model import NetworkModel
from repro.core.statistics import BasestationStatistics
from repro.core.storage_index import StorageIndex

#: Cost substituted for unreachable owners so argmin never picks them while
#: the matrices stay finite.
UNREACHABLE_COST = 1e12

#: Near-tie tolerance when stabilising index owner choices: candidates
#: within this fraction of the per-value minimum cost may be replaced by
#: the contiguity/stability-preferred owner (:func:`_stabilise_choice`).
INDEX_TIE_TOLERANCE = 0.15


@dataclass
class IndexBuildResult:
    """Outcome of one index construction round."""

    index: StorageIndex
    #: expected messages/second if the network follows ``index``.
    expected_cost: float
    #: expected messages/second under the store-local policy.
    store_local_cost: float
    #: True when store-local was cheaper and fallback is enabled.
    chose_store_local: bool
    #: candidate owners considered.
    candidates: List[int] = field(default_factory=list)
    #: producers with statistics.
    producers: List[int] = field(default_factory=list)


@dataclass
class _ProblemInputs:
    """The algorithm's statistical inputs, extracted once per build."""

    producers: List[int]
    candidates: List[int]
    production: np.ndarray  # (P, V): P(p -> v)
    rates: np.ndarray  # (P,)
    xmits_po: np.ndarray  # (P, O)
    roundtrip: np.ndarray  # (O,)
    query_prob: np.ndarray  # (V,)
    query_rate: float


def _gather_inputs(
    stats: BasestationStatistics,
    model: NetworkModel,
    config: ScoopConfig,
    now: float,
    attr: int = 0,
) -> _ProblemInputs:
    base = config.basestation_id
    # Staleness eviction (Section 6 recovery): nodes silent beyond the
    # staleness window are neither producers nor owner candidates, so a
    # dead owner's range is reassigned by the very next argmin.
    producers = stats.producer_nodes(now, attr)
    candidates = sorted(set(stats.known_nodes(now)) | {base})
    production = stats.production_matrix(producers, attr)
    rates = stats.rate_vector(producers)
    xmits_po = model.xmits_matrix(producers, candidates)
    roundtrip = model.roundtrip_vector(base, candidates)
    np.nan_to_num(xmits_po, copy=False, posinf=UNREACHABLE_COST)
    np.nan_to_num(roundtrip, copy=False, posinf=UNREACHABLE_COST)
    queries = stats.queries_for(attr)
    return _ProblemInputs(
        producers=producers,
        candidates=candidates,
        production=production,
        rates=rates,
        xmits_po=xmits_po,
        roundtrip=roundtrip,
        query_prob=queries.probability_vector(),
        query_rate=queries.query_rate(now),
    )


def _cost_matrix(inputs: _ProblemInputs) -> np.ndarray:
    """cost[v, o] per Figure 2, all values and owners at once.

    The inner sum Σ_p P(p→v)·rate_p·xmits(p→o) is the matrix
    product (P ⊙ rate)ᵀ · X; the query term broadcasts the roundtrip row.
    """
    weighted = inputs.production * inputs.rates[:, None]  # (P, V)
    data_cost = weighted.T @ inputs.xmits_po  # (V, O)
    query_cost = (
        inputs.query_rate * inputs.query_prob[:, None] * inputs.roundtrip[None, :]
    )
    return data_cost + query_cost


def evaluate_store_local_cost(
    stats: BasestationStatistics,
    model: NetworkModel,
    config: ScoopConfig,
    now: float,
    attr: int = 0,
) -> float:
    """Expected messages/second under the store-local policy.

    Data costs nothing (every reading stays at its producer); every query is
    flooded (one rebroadcast per node) and every node sends a reply up the
    tree: ``query_rate · (n_flood + Σ_p xmits(p -> base))``.
    """
    base = config.basestation_id
    producers = stats.producer_nodes(now, attr) or list(stats.known_nodes(now))
    flood_cost = float(len(stats.known_nodes(now)))
    reply_cost = 0.0
    for node in producers:
        xm = model.xmits(node, base)
        reply_cost += xm if math.isfinite(xm) else UNREACHABLE_COST
    return stats.queries_for(attr).query_rate(now) * (flood_cost + reply_cost)


def evaluate_index_cost(
    index: StorageIndex,
    stats: BasestationStatistics,
    model: NetworkModel,
    config: ScoopConfig,
    now: float,
) -> float:
    """Expected messages/second if the network follows ``index``.

    Used for the store-local comparison, ablations, and as the ground truth
    in optimality tests. Multi-owner values charge producers the nearest
    owner and queries every owner, mirroring the owner-set extension.
    The attribute evaluated is ``index.attr``.
    """
    inputs = _gather_inputs(stats, model, config, now, attr=index.attr)
    candidate_pos = {node: j for j, node in enumerate(inputs.candidates)}
    total = 0.0
    for v in index.domain:
        vi = index.domain.index_of(v)
        owners = index.owners_of(v)
        positions = [candidate_pos[o] for o in owners if o in candidate_pos]
        if not positions:
            total += UNREACHABLE_COST
            continue
        per_producer = inputs.xmits_po[:, positions].min(axis=1)
        data = float(np.dot(inputs.production[:, vi] * inputs.rates, per_producer))
        query = (
            inputs.query_rate
            * inputs.query_prob[vi]
            * float(inputs.roundtrip[positions].sum())
        )
        total += data + query
    return total


def _apply_range_placement(
    cost: np.ndarray, domain: ValueDomain, width: int
) -> np.ndarray:
    """Aggregate per-value costs into fixed-width ranges (extension 3).

    Returns a cost matrix where every value in a range shares the summed
    cost of the range, so the argmin assigns the whole range to one owner.
    """
    if width <= 1:
        return cost
    out = np.empty_like(cost)
    for start in range(0, domain.size, width):
        stop = min(start + width, domain.size)
        out[start:stop] = cost[start:stop].sum(axis=0, keepdims=True)
    return out


def _greedy_owner_sets(
    inputs: _ProblemInputs,
    single_owner_choice: np.ndarray,
    max_owners: int,
) -> List[Tuple[int, ...]]:
    """Owner-set extension: greedily add owners while expected cost drops.

    cost(O, v) = Σ_p P·rate·min_{o∈O} xmits(p,o)
               + query_rate · P(q v) · Σ_{o∈O} roundtrip(o)
    """
    owners_out: List[Tuple[int, ...]] = []
    weighted = inputs.production * inputs.rates[:, None]  # (P, V)
    n_candidates = len(inputs.candidates)
    for vi in range(inputs.production.shape[1]):
        chosen = [int(single_owner_choice[vi])]
        w = weighted[:, vi]  # (P,)
        current_min = inputs.xmits_po[:, chosen[0]].copy()
        current_cost = float(w @ current_min) + (
            inputs.query_rate
            * inputs.query_prob[vi]
            * float(inputs.roundtrip[chosen].sum())
        )
        while len(chosen) < max_owners:
            best_j, best_cost, best_min = -1, current_cost, None
            for j in range(n_candidates):
                if j in chosen:
                    continue
                candidate_min = np.minimum(current_min, inputs.xmits_po[:, j])
                cost = float(w @ candidate_min) + (
                    inputs.query_rate
                    * inputs.query_prob[vi]
                    * float(inputs.roundtrip[chosen].sum() + inputs.roundtrip[j])
                )
                if cost < best_cost - 1e-12:
                    best_j, best_cost, best_min = j, cost, candidate_min
            if best_j < 0:
                break
            chosen.append(best_j)
            current_cost = best_cost
            current_min = best_min
        owners_out.append(tuple(inputs.candidates[j] for j in chosen))
    return owners_out


def _stabilise_choice(
    cost: np.ndarray,
    choice: np.ndarray,
    previous_pick: np.ndarray,
) -> np.ndarray:
    """Resolve near-ties in favour of contiguity and stability.

    For values produced by several nodes with overlapping histograms the
    per-value costs of the cluster members are nearly identical, and a raw
    argmin interleaves them — producing width-1 ranges that defeat both
    range compaction (Section 5.3) and data batching (Section 5.4), and
    churning owners between remaps so similarity-based suppression never
    fires. Within :data:`INDEX_TIE_TOLERANCE` of the minimum, prefer (1)
    the owner already chosen for the previous value, then (2) the owner
    the previous index assigned; otherwise keep the argmin.

    ``previous_pick[v]`` is the candidate column of the previous index's
    owner for v, or -1.
    """
    stabilised = choice.copy()
    min_cost = cost[np.arange(cost.shape[0]), choice]
    prev_column = -1
    for vi in range(cost.shape[0]):
        threshold = min_cost[vi] * (1.0 + INDEX_TIE_TOLERANCE) + 1e-12
        for candidate in (prev_column, int(previous_pick[vi])):
            if candidate >= 0 and cost[vi, candidate] <= threshold:
                stabilised[vi] = candidate
                break
        prev_column = int(stabilised[vi])
    return stabilised


def build_storage_index(
    sid: int,
    stats: BasestationStatistics,
    model: NetworkModel,
    config: ScoopConfig,
    now: float,
    previous: Optional[StorageIndex] = None,
    attr: int = 0,
) -> IndexBuildResult:
    """Run the Figure 2 algorithm and the store-local comparison.

    ``previous`` (the currently disseminated index) anchors near-tie
    resolution so consecutive indices stay similar. With no statistics at
    all, every value is mapped to the basestation (the only node the root
    is sure exists). ``attr`` selects which attribute's statistics,
    query stream and domain the argmin runs over (the per-attribute remap
    of E15); the supplied ``model`` is topology-only and is shared across
    attributes within one remap.
    """
    base = config.basestation_id
    domain = config.domain_of(attr)
    inputs = _gather_inputs(stats, model, config, now, attr=attr)

    if not inputs.candidates or not inputs.producers:
        index = StorageIndex.uniform(sid, domain, base, attr=attr)
        local_cost = evaluate_store_local_cost(stats, model, config, now, attr)
        return IndexBuildResult(
            index=index,
            expected_cost=0.0,
            store_local_cost=local_cost,
            chose_store_local=False,
            candidates=inputs.candidates,
            producers=inputs.producers,
        )

    cost = _cost_matrix(inputs)  # (V, O)
    # Tie-break toward the basestation side: among equal-cost owners prefer
    # the one cheapest to query, so untouched values don't scatter randomly.
    cost = cost + 1e-9 * inputs.roundtrip[None, :]
    cost = _apply_range_placement(cost, domain, config.range_placement_width)
    choice = cost.argmin(axis=1)  # (V,)

    candidate_column = {node: j for j, node in enumerate(inputs.candidates)}
    previous_pick = np.full(domain.size, -1, dtype=int)
    if previous is not None and previous.domain == domain:
        for vi, v in enumerate(domain):
            previous_pick[vi] = candidate_column.get(previous.owner_of(v), -1)
    choice = _stabilise_choice(cost, choice, previous_pick)

    if config.max_owners_per_value > 1:
        owner_sets = _greedy_owner_sets(inputs, choice, config.max_owners_per_value)
        index = StorageIndex(sid, domain, owner_sets, attr=attr)
    else:
        owner_by_value = [inputs.candidates[j] for j in choice]
        index = StorageIndex.single_owner(sid, domain, owner_by_value, attr=attr)

    expected = float(np.take_along_axis(cost, choice[:, None], axis=1).sum())
    local_cost = evaluate_store_local_cost(stats, model, config, now, attr)
    chose_local = config.allow_store_local_fallback and local_cost < expected
    return IndexBuildResult(
        index=index,
        expected_cost=expected,
        store_local_cost=local_cost,
        chose_store_local=chose_local,
        candidates=inputs.candidates,
        producers=inputs.producers,
    )
