"""Batched uniform random stream for the radio hot path.

The radio consumes randomness at very high rate (every transmission draws
per-receiver loss outcomes plus CSMA backoffs). Drawing those one at a time
from :class:`random.Random` dominated profile time, so the radio uses this
dedicated stream, which fills fixed-size blocks from numpy's PCG64 and
serves draws out of the block. A block is converted to Python floats
once, when it is generated, so a draw is a list index and ``take(k)`` a
list slice: the radio compares each loss draw in Python, where a numpy
call per transmission costs more than it saves.

Determinism contract (the "stream-refill discipline")
-----------------------------------------------------

The stream is one flat sequence ``u0, u1, u2, ...`` of uniforms in
``[0, 1)``, fixed entirely by the seed. Blocks are an implementation
detail: ``take(k)`` returns exactly the next ``k`` elements of that
sequence, and is therefore draw-for-draw identical to ``k`` successive
:meth:`random` calls. Consumers keep serial ≡ parallel determinism by
obeying one rule: *the number and order of draws consumed must be a pure
function of simulation state* — e.g. the radio draws exactly
``len(audible_neighbors(src))`` loss uniforms per transmission, in
ascending receiver id order, regardless of whether a collision already
doomed the frame.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Mixed into the seed so the radio stream never aliases ``Simulator.rng``
#: (which is seeded with the bare trial seed).
_STREAM_DOMAIN = 0x5C00B

_BLOCK = 4096


class BatchedUniformStream:
    """Uniform [0, 1) draws served from pre-generated blocks."""

    __slots__ = ("seed", "_gen", "_block", "_pos")

    def __init__(self, seed: int):
        self.seed = seed
        self._pos = _BLOCK  # empty: first draw triggers a refill
        self._block: List[float] = []
        entropy = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, _STREAM_DOMAIN])
        self._gen = np.random.Generator(np.random.PCG64(entropy))

    def _refill(self) -> None:
        self._block = self._gen.random(_BLOCK).tolist()
        self._pos = 0

    def random(self) -> float:
        """The next uniform in the sequence."""
        if self._pos >= _BLOCK:
            self._refill()
        value = self._block[self._pos]
        self._pos += 1
        return value

    def uniform(self, lo: float, hi: float) -> float:
        """One draw scaled to ``[lo, hi)``."""
        return lo + (hi - lo) * self.random()

    def take(self, k: int) -> List[float]:
        """The next ``k`` uniforms as a list — identical draws to ``k``
        successive :meth:`random` calls."""
        pos = self._pos
        end = pos + k
        if end <= _BLOCK:
            self._pos = end
            return self._block[pos:end]
        out = self._block[pos:]
        while len(out) < k:
            self._refill()
            n = min(_BLOCK, k - len(out))
            out += self._block[:n]
            self._pos = n
        return out
