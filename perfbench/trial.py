"""One trial in a fresh process, so set-up and peak RSS are its own.

    python3 perfbench/trial.py WORKLOAD SEED MODE

Every trial is ``run_experiment(spec)`` itself, so the timed path is the
shipped path: ``Deployment.create`` runs as a span, which splits set-up
from the trial, and ``traced`` wraps every layer as well (see
``layers.py``). ``setup`` only calls ``Deployment.create``, for one more
set-up sample. Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.core.config import canonical_key  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.service.deployment import Deployment  # noqa: E402

from layers import Patches, Tracer, install_trial_layers, span_classmethod  # noqa: E402
from specs import trial_spec  # noqa: E402

MODES = ("timed", "traced", "setup")


def measure(spec, traced: bool) -> Dict[str, Any]:
    """Time ``run_experiment(spec)``: set-up is its ``setup*`` spans
    (``Deployment.create``), the trial everything else."""
    tracer = Tracer()
    if traced:
        patches = install_trial_layers(tracer)
    else:
        patches = Patches()
        span_classmethod(patches, tracer, Deployment, "create", "setup")
    try:
        started = time.perf_counter()
        result = run_experiment(spec)
        elapsed = time.perf_counter() - started
    finally:
        patches.restore()
    setup_s = sum(s for layer, s in tracer.self_s.items() if layer.startswith("setup"))
    metrics = result.metrics
    out = {
        "digest": canonical_key(result.deterministic_dict()),
        "precision_violations": int(metrics.oracle.get("precision_violations", 0)),
        "queries": result.queries_issued,
        "recall": float(metrics.oracle.get("recall_mean", 0.0)),
        "remaps": result.remaps_run,
        "dijkstra_runs": int(metrics.planner.get("dijkstra_runs", 0)),
        "setup_s": setup_s,
        "trial_s": elapsed - setup_s,
    }
    if traced:
        out.update(
            self_s=dict(tracer.self_s),
            counts=dict(tracer.counts),
            trial_covered_s=tracer.covered_s - setup_s,
        )
    return out


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in MODES:
        raise SystemExit(f"mode must be one of {MODES}, got {mode!r}")
    spec = trial_spec(workload, seed)
    if mode == "setup":
        started = time.perf_counter()
        Deployment.create(spec)
        out: Dict[str, Any] = {"setup_s": time.perf_counter() - started}
    else:
        out = measure(spec, traced=mode == "traced")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
