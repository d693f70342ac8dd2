"""The REAL workload: correlated indoor light data.

The paper replays "a trace of real light data collected from a 50-node
indoor sensor network deployment" (the Intel Lab dataset) and notes the key
property: "Because these sensors were deployed in the same building, their
light readings are highly correlated."

That dataset is not redistributable inside this offline reproduction, so
:class:`CorrelatedLightWorkload` generates a synthetic equivalent that
preserves the two properties Scoop actually exploits (see DESIGN.md,
substitutions table):

* **temporal correlation** — a node's next value is close to its recent
  values (the paper's premise that "recently sensed values are likely to be
  a good predictor of values a node produces in the near future");
* **spatial correlation** — co-located nodes see similar light levels
  (shared building-wide illumination), so the histogram-driven index packs
  neighborhoods onto nearby owners.

The generator sums a shared building signal (slow diurnal ramp + smooth
random walk), a per-node offset (fixed shading/position), and small sensor
noise, then quantises to the domain. All components are deterministic
functions of ``(seed, node, time)``.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.config import ValueDomain
from repro.workloads.base import Workload


class CorrelatedLightWorkload(Workload):
    """Synthetic stand-in for the Intel Lab light trace."""

    name = "real"

    def __init__(
        self,
        domain: ValueDomain,
        n_nodes: int,
        seed: int = 0,
        diurnal_period: float = 7200.0,
        walk_step: float = 600.0,
        spatial_spread: float = 1.0,
        shared_amplitude: float = 0.08,
        noise: float = 1.5,
        positions=None,
    ):
        super().__init__(domain, n_nodes, seed, positions=positions)
        self.diurnal_period = diurnal_period
        self.walk_step = walk_step
        self.noise = noise
        self.shared_amplitude = shared_amplitude
        span = domain.hi - domain.lo
        # Fixed per-node offset: where a sensor sits (window desk vs.
        # interior corridor) separates light levels far more than the
        # within-hour drift does. When topology positions are available the
        # offset is a smooth function of position — nearby nodes see
        # similar light, the "geographic locality between values produced
        # by nodes" that lets Scoop assign nodes their own values. Without
        # positions, offsets are random per node (no geographic locality).
        self._offsets: Dict[int, float] = {}
        #: memoized random-walk knots: every node sampling inside the same
        #: time bucket re-derives the same deterministic value, so caching
        #: changes nothing but skips a hash + PRNG construction per sample.
        self._walk_cache: Dict[int, float] = {}
        if self.positions is not None and len(self.positions) >= n_nodes:
            xs = [p[0] for p in self.positions[:n_nodes]]
            ys = [p[1] for p in self.positions[:n_nodes]]
            w = max(max(xs) - min(xs), 1e-9)
            h = max(max(ys) - min(ys), 1e-9)
            for node in range(n_nodes):
                rng = self._rng_for("offset", node)
                x = (self.positions[node][0] - min(xs)) / w
                y = (self.positions[node][1] - min(ys)) / h
                gradient = (x - 0.5) * span * 0.55 * spatial_spread
                window_band = math.sin(2.5 * math.pi * y) * span * 0.18
                self._offsets[node] = (
                    gradient + window_band + rng.gauss(0.0, span * 0.03)
                )
        else:
            for node in range(n_nodes):
                rng = self._rng_for("offset", node)
                self._offsets[node] = rng.gauss(0.0, spatial_spread * span / 4)
        self._span = span

    # ------------------------------------------------------------------
    # Shared building signal
    # ------------------------------------------------------------------
    def _walk_value(self, bucket: int) -> float:
        """Smooth random-walk component, deterministic per time bucket."""
        try:
            return self._walk_cache[bucket]
        except KeyError:
            rng = self._rng_for("walk", bucket)
            value = rng.gauss(0.0, self._span * self.shared_amplitude / 2)
            self._walk_cache[bucket] = value
            return value

    def building_signal(self, now: float) -> float:
        """The shared light level all nodes observe (before offsets)."""
        mid = (self.domain.lo + self.domain.hi) / 2
        diurnal = math.sin(2 * math.pi * now / self.diurnal_period)
        base = mid + diurnal * self._span * self.shared_amplitude
        # Linear interpolation between random-walk knots keeps the signal
        # continuous (temporal correlation) yet deterministic.
        bucket = int(now // self.walk_step)
        frac = (now % self.walk_step) / self.walk_step
        walk = (1 - frac) * self._walk_value(bucket) + frac * self._walk_value(
            bucket + 1
        )
        return base + walk

    def sample(self, node_id: int, now: float) -> int:
        rng = self._rng_for(node_id, round(now, 3))
        value = (
            self.building_signal(now)
            + self._offsets[node_id]
            + rng.gauss(0.0, self.noise)
        )
        return self.domain.clamp(round(value))
