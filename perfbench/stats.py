"""Percentiles the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, ``0 < q <= 1``: the smallest sample
    with at least a share ``q`` of the sample at or below it.

    Failed operations enter as ``math.inf``, so each one counts as
    missing every latency limit; with more than ``1 - q`` of the sample
    failed the quantile itself is infinite.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    # round() absorbs float noise such as 0.99 * 1000 = 989.999...
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
