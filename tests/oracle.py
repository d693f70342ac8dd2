"""Ground-truth query oracle harness for the test suite.

Replays every reading a finished trial produced (the
:class:`~repro.sim.metrics.DeliveryTracker` record — built *outside* the
simulator's delivery pipeline) and computes the exact answer set for any
(attribute, time-range, value-range/node-list) query. Tests then assert
two things instead of hand-written per-test expectations:

* every reading a policy returned is in the oracle's produced set
  (**no false positives, ever** — a violation means the pipeline
  corrupted or mis-indexed data);
* the returned fraction of the *reachable* ground truth (**recall**) is
  at or above the scenario's floor.

Built on :mod:`repro.experiments.oracle`, the same scorer that stamps
``TrialMetrics.oracle`` onto every campaign export.
"""

from typing import Iterable, List, Optional, Set

from repro.core.config import ScoopConfig
from repro.core.query import Query, QueryResult
from repro.experiments.oracle import (
    ReadingKey,
    _bucket_by_attr,
    _candidates,
    matches_query,
    score_trial,
)
from repro.sim.metrics import DeliveryTracker


def produced_answer(tracker: DeliveryTracker, query: Query) -> Set[ReadingKey]:
    """Every produced reading matching ``query`` — the precision
    reference: nothing outside this set may ever be returned."""
    return {
        (r.value, r.produced_at, r.producer)
        for r in _candidates(tracker, query)
        if matches_query(r, query)
    }


def reachable_answer(
    tracker: DeliveryTracker,
    query: Query,
    stored_by: Optional[float] = None,
    at_time: Optional[float] = None,
) -> Set[ReadingKey]:
    """The recall denominator: matching readings a perfect executor could
    actually have fetched — stored somewhere by ``stored_by`` (a reading
    still sitting in a producer's batch buffer is unreachable) and, with
    ``at_time``, not orphaned on a node that is dark then (E14)."""
    out: Set[ReadingKey] = set()
    for r in _candidates(tracker, query):
        if not matches_query(r, query) or not r.stored:
            continue
        if stored_by is not None and r.stored_time > stored_by:
            continue
        if at_time is not None and tracker.node_down(r.stored_at, at_time):
            continue
        out.add((r.value, r.produced_at, r.producer))
    return out


class QueryOracle:
    """Exact-answer oracle for one finished trial."""

    def __init__(self, tracker: DeliveryTracker, config: ScoopConfig):
        self.tracker = tracker
        self.config = config
        _bucket_by_attr(tracker)

    # -- exact answers ---------------------------------------------------
    def produced(self, query) -> Set[ReadingKey]:
        """Every produced reading matching ``query`` (the precision
        reference)."""
        return produced_answer(self.tracker, query)

    def reachable(self, query) -> Set[ReadingKey]:
        """Matching readings a perfect executor could have fetched when
        the query went out (the recall denominator): stored somewhere by
        issue time, on a node alive then."""
        issued = query.time_range[1]
        return reachable_answer(
            self.tracker, query, stored_by=issued, at_time=issued
        )

    # -- assertions ------------------------------------------------------
    def assert_subset(self, result: QueryResult) -> None:
        """The policy's answer must be contained in the oracle's produced
        set — nothing fabricated, nothing from the wrong attribute."""
        returned = {(v, t, p) for v, t, p in result.readings}
        extras = returned - self.produced(result.query)
        assert not extras, (
            f"query {result.query.query_id} (attr {result.query.attr}) "
            f"returned {len(extras)} readings the oracle never produced: "
            f"{sorted(extras)[:5]}"
        )

    def recall(self, result: QueryResult) -> float:
        """Returned fraction of the reachable ground truth (1.0 when the
        oracle set is empty — there was nothing to miss)."""
        expected = self.reachable(result.query)
        if not expected:
            return 1.0
        returned = {(v, t, p) for v, t, p in result.readings}
        return len(returned & expected) / len(expected)

    def check_results(
        self, results: Iterable[QueryResult], min_mean_recall: float = 0.0
    ) -> List[float]:
        """Subset-check every closed result; return their recalls and
        assert the mean is at or above ``min_mean_recall``."""
        recalls: List[float] = []
        for result in results:
            if not result.closed:
                continue
            self.assert_subset(result)
            recalls.append(self.recall(result))
        if recalls and min_mean_recall > 0.0:
            mean = sum(recalls) / len(recalls)
            assert mean >= min_mean_recall, (
                f"mean oracle recall {mean:.2f} below floor "
                f"{min_mean_recall:.2f} over {len(recalls)} queries"
            )
        return recalls

    def scorecard(self, query_log: Iterable[QueryResult]):
        """The trial-wide (oracle, per-attribute) scorecard, exactly as a
        campaign export would carry it."""
        return score_trial(list(query_log), self.tracker, self.config)
