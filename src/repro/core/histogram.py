"""Fixed-width summary histograms and the P(p produces v) estimator.

Implements Section 5.2 of the paper exactly:

* the histogram has ``nBins`` fixed-width bins over ``[min, max]``, the
  smallest and largest values the attribute took on at the node during
  recent history; bin ``n`` counts readings in
  ``[min + n*w, min + (n+1)*w)`` with ``w = (max - min + 1) / nBins``;
* the producer-probability estimator assumes values within a bin are
  uniformly distributed::

      P(p -> v):
          binWidth = (max - min + 1) / nBins
          bin      = (v - min) / binWidth
          P(v|bin) = 1 / binWidth
          P(bin)   = height(bin) / sum(heights)
          return P(v|bin) * P(bin)

The estimator is deliberately coarse — 10 bins in one radio packet — and
the indexing algorithm's quality degrades gracefully with it, which is part
of what the reproduction must preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """An equal-bin-width histogram over a node's recent readings."""

    min_value: int
    max_value: int
    bins: tuple

    def __post_init__(self) -> None:
        if self.max_value < self.min_value:
            raise ValueError("max_value < min_value")
        if not self.bins:
            raise ValueError("histogram needs at least one bin")
        if any(b < 0 for b in self.bins):
            raise ValueError("negative bin count")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Sequence[int], n_bins: int = 10) -> "Histogram":
        """Build from a node's recent-readings buffer, in the paper's
        ``n_bins`` of 10 ("nBins is 10") unless told otherwise.

        Raises ``ValueError`` on an empty sequence — a node with no recent
        readings sends no histogram (its summary simply reports nothing).
        """
        if len(values) == 0:
            raise ValueError("cannot build a histogram from no readings")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        lo, hi = int(min(values)), int(max(values))
        width = (hi - lo + 1) / n_bins
        bins = [0] * n_bins
        for v in values:
            index = int((int(v) - lo) / width)
            bins[min(index, n_bins - 1)] += 1
        return cls(min_value=lo, max_value=hi, bins=tuple(bins))

    # ------------------------------------------------------------------
    # Probability model
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def bin_width(self) -> float:
        return (self.max_value - self.min_value + 1) / self.n_bins

    @property
    def total(self) -> int:
        return sum(self.bins)

    def bin_of(self, value: int) -> int:
        """Bin index for a value inside [min, max]."""
        if not self.min_value <= value <= self.max_value:
            raise ValueError(f"{value} outside [{self.min_value}, {self.max_value}]")
        return min(int((value - self.min_value) / self.bin_width), self.n_bins - 1)

    def probability(self, value: int) -> float:
        """The paper's P(p -> v): probability node p next produces ``v``.

        Values outside the node's recently observed [min, max] get
        probability 0 — the estimator only knows recent history.
        """
        if value < self.min_value or value > self.max_value:
            return 0.0
        total = self.total
        if total == 0:
            return 0.0
        p_bin = self.bins[self.bin_of(value)] / total
        # The paper's P(v|bin) = 1/binWidth; over an integer domain a bin
        # narrower than one value would yield a conditional above 1, so cap
        # it (a bin holding a single integer is certain to produce it).
        p_value_given_bin = min(1.0, 1.0 / self.bin_width)
        return p_value_given_bin * p_bin

    def probability_vector(self, domain_lo: int, domain_hi: int) -> np.ndarray:
        """P(p -> v) for every v in [domain_lo, domain_hi] as a vector.

        Used by the vectorised indexing algorithm; identical to calling
        :meth:`probability` per value.
        """
        size = domain_hi - domain_lo + 1
        out = np.zeros(size)
        total = self.total
        if total == 0:
            return out
        inv_width = min(1.0, 1.0 / self.bin_width)
        for v in range(
            max(domain_lo, self.min_value), min(domain_hi, self.max_value) + 1
        ):
            out[v - domain_lo] = (self.bins[self.bin_of(v)] / total) * inv_width
        return out

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def wire_bytes(self) -> int:
        # one byte per bin (coarse counts), two bytes each for min/max
        return self.n_bins + 4

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram[{self.min_value},{self.max_value}]{list(self.bins)}"
