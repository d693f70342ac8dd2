"""Ground-truth query oracle: exact answer sets, replayed outside the sim.

Every reading a trial produces is recorded by the
:class:`~repro.sim.metrics.DeliveryTracker` with its attribute, value,
producer and timestamps. Replaying that record against a query's
predicate — attribute, time range, and value range or node list — yields
the *exact* answer set, independent of everything the simulator's
delivery pipeline (routing, batching, loss, reply windows) did. That
gives two checkable guarantees per query:

* **precision**: every reading a policy returned must be one the network
  actually produced and that matches the predicate — a violation means
  the pipeline corrupted or mis-indexed data, and is always a bug;
* **recall**: the fraction of the *reachable* ground truth (stored
  somewhere by the time the reply window closed, and not orphaned on a
  dead node's flash) the policy actually returned — the paper's
  retrieval-rate story, measured against an oracle instead of ad-hoc
  per-test expectations.

The scorer runs on every simulated trial and rides the campaign export in
``TrialMetrics.oracle`` / ``TrialMetrics.attributes``; ``tests/oracle.py``
builds a pytest harness on the same predicate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.core.config import ScoopConfig
from repro.core.query import Query, QueryResult
from repro.sim.metrics import DeliveryTracker, ReadingOutcome

#: Identity of one reading inside an attribute's stream.
ReadingKey = Tuple[int, float, int]  # (value, timestamp, producer)


def matches_query(outcome: ReadingOutcome, query: Query) -> bool:
    """Whether a produced reading satisfies ``query``'s predicate."""
    if outcome.attr != query.attr:
        return False
    t_lo, t_hi = query.time_range
    if not t_lo <= outcome.produced_at <= t_hi:
        return False
    if query.node_list is not None and outcome.producer not in query.node_list:
        return False
    if query.value_range is not None:
        v_lo, v_hi = query.value_range
        if not v_lo <= outcome.value <= v_hi:
            return False
    return True


def _candidates(
    tracker: DeliveryTracker, query: Query
) -> Iterable[ReadingOutcome]:
    """The readings a query's predicate could match — its attribute's
    bucket when the tracker has one (score_trial pre-buckets once so a
    trial's scoring pass is O(queries × per-attribute readings), not
    O(queries × all readings))."""
    by_attr = getattr(tracker, "_oracle_by_attr", None)
    if by_attr is not None:
        return by_attr.get(query.attr, ())
    return tracker.readings


def _bucket_by_attr(tracker: DeliveryTracker) -> None:
    """Memoize a per-attribute view of the tracker's readings."""
    by_attr: Dict[int, List[ReadingOutcome]] = {}
    for r in tracker.readings:
        by_attr.setdefault(r.attr, []).append(r)
    tracker._oracle_by_attr = by_attr


def score_query(
    result: QueryResult,
    tracker: DeliveryTracker,
) -> Dict[str, float]:
    """Precision/recall of one closed query against the oracle."""
    query = result.query
    returned = {
        (value, timestamp, producer)
        for value, timestamp, producer in result.readings
    }
    # One pass over the query's candidate readings classifies both sets:
    # ``produced`` (the precision reference) and ``expected`` — what a
    # perfect executor could have fetched when the query went out:
    # readings stored somewhere by *issue* time (the end of the time
    # range) on a node alive then. A reading that landed at its owner
    # only after that node had already sent its reply was never
    # fetchable, and counting it would systematically understate every
    # policy's recall.
    issued = query.time_range[1]
    produced: Set[ReadingKey] = set()
    expected: Set[ReadingKey] = set()
    for r in _candidates(tracker, query):
        if not matches_query(r, query):
            continue
        key = (r.value, r.produced_at, r.producer)
        produced.add(key)
        if (
            r.stored
            and r.stored_time <= issued
            and not tracker.node_down(r.stored_at, issued)
        ):
            expected.add(key)
    violations = len(returned - produced)
    hits = len(returned & expected)
    return {
        "attr": float(query.attr),
        "expected": float(len(expected)),
        "returned": float(len(returned)),
        "hits": float(hits),
        "violations": float(violations),
        "recall": hits / len(expected) if expected else 1.0,
        "empty": float(not expected),
    }


def score_trial(
    query_log: Iterable[QueryResult],
    tracker: DeliveryTracker,
    config: ScoopConfig,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Oracle scorecard of a whole trial, plus per-attribute counters.

    Returns ``(oracle, attributes)`` in the shapes
    :class:`~repro.sim.metrics.TrialMetrics` carries: ``oracle`` has the
    trial-wide recall/precision aggregate, ``attributes`` one ``"a<id>"``
    row per registered attribute (readings produced/stored, queries
    issued, per-attribute recall).
    """
    _bucket_by_attr(tracker)
    scores: List[Dict[str, float]] = [
        score_query(result, tracker)
        for result in query_log
        if result.closed
    ]
    scored = [s for s in scores if not s["empty"]]
    recalls = [s["recall"] for s in scored]
    expected_total = sum(s["expected"] for s in scores)
    hits_total = sum(s["hits"] for s in scores)
    oracle: Dict[str, float] = {
        "queries_scored": float(len(scored)),
        "queries_empty": float(len(scores) - len(scored)),
        "recall_mean": sum(recalls) / len(recalls) if recalls else 1.0,
        "recall_min": min(recalls) if recalls else 1.0,
        #: tuple-weighted recall over the whole stream — the stable
        #: statistic (a per-query mean lets 1-of-2-reading queries
        #: dominate at small scales).
        "recall_weighted": (
            hits_total / expected_total if expected_total else 1.0
        ),
        "precision_violations": sum(s["violations"] for s in scores),
        "readings_expected": expected_total,
        "readings_returned": sum(s["returned"] for s in scores),
    }

    attributes: Dict[str, Dict[str, float]] = {}
    for attr in config.attribute_ids:
        produced = tracker._oracle_by_attr.get(attr, [])
        attr_scored = [s for s in scored if int(s["attr"]) == attr]
        attr_recalls = [s["recall"] for s in attr_scored]
        attr_expected = sum(s["expected"] for s in attr_scored)
        attr_hits = sum(s["hits"] for s in attr_scored)
        attributes[f"a{attr}"] = {
            "readings_produced": float(len(produced)),
            "readings_stored": float(sum(1 for r in produced if r.stored)),
            "queries_scored": float(len(attr_scored)),
            "recall_mean": (
                sum(attr_recalls) / len(attr_recalls) if attr_recalls else 1.0
            ),
            "recall_weighted": (
                attr_hits / attr_expected if attr_expected else 1.0
            ),
            "precision_violations": sum(
                s["violations"] for s in scores if int(s["attr"]) == attr
            ),
        }
    return oracle, attributes
