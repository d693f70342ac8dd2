"""CI perf gate: fail on >20% simulator-throughput regressions.

Runs the kernel/trial benchmark (``benchmarks/bench_kernel.py``, RSS probes
skipped — CI runners share cores and RSS is stable anyway) and compares the
fresh numbers against the committed baseline in
``benchmarks/BENCH_kernel.json``:

* ``kernel.heap_events_per_sec`` — pure scheduling throughput;
* ``e13_smoke.trials_per_sec`` — one full 64-node SCOOP trial.

A fresh value below ``(1 - TOLERANCE)`` of the baseline fails the job.
CI virtualization is noisy, so the tolerance is deliberately wide (20%)
and the benchmark reports best-of-N; a genuine hot-path regression shows
up far beyond 20%, scheduler jitter does not.

Overrides:

* set the ``PERF_GATE_OVERRIDE`` environment variable (the workflow wires
  it to the ``perf-gate-override`` PR label) to demote failures to
  warnings — for intentional slowdowns, e.g. trading speed for fidelity;
* refresh the baseline alongside intentional changes with
  ``python benchmarks/bench_kernel.py --update-baseline --label "..."``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

TOLERANCE = 0.20

#: (path into the bench document, human name) of each gated metric.
GATED = (
    (("kernel", "heap_events_per_sec"), "kernel heap events/sec"),
    (("e13_smoke", "trials_per_sec"), "E13 smoke trials/sec"),
)


def _lookup(doc: dict, path: tuple) -> float:
    value: object = doc
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return 0.0
        value = value[key]
    return float(value)  # type: ignore[arg-type]


def main() -> int:
    import bench_kernel

    trajectory = bench_kernel.load_trajectory()
    baseline = trajectory.get("baseline")
    if not baseline:
        print("perf gate: no committed baseline in BENCH_kernel.json; skipping")
        return 0

    fresh = bench_kernel.run_bench(include_rss=False, trial_repeats=3)
    override = bool(os.environ.get("PERF_GATE_OVERRIDE"))

    failures = []
    for path, name in GATED:
        base = _lookup(baseline, path)
        now = _lookup(fresh, path)
        if base <= 0:
            print(f"perf gate: {name}: no baseline value, skipped")
            continue
        ratio = now / base
        status = "OK" if ratio >= 1.0 - TOLERANCE else "REGRESSION"
        print(f"perf gate: {name}: {now:,.1f} vs baseline {base:,.1f} "
              f"({ratio:.2f}x) {status}")
        if status == "REGRESSION":
            failures.append(name)

    if failures and override:
        print(f"perf gate: OVERRIDDEN ({', '.join(failures)}) — "
              "PERF_GATE_OVERRIDE is set")
        return 0
    if failures:
        print(
            f"perf gate: FAILED ({', '.join(failures)}). If the slowdown is "
            "intentional, apply the perf-gate-override label or refresh the "
            "baseline with bench_kernel.py --update-baseline.",
            file=sys.stderr,
        )
        return 1
    print("perf gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
