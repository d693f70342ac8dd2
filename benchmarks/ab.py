"""Same-host A/B runs of the benchmark: a base commit against this checkout.

    python benchmarks/ab.py --base BASE --out benchmarks/BENCH_<topic>.json \\
        [WORKLOAD[:SEED] ...]

The host's speed drifts by up to 1.7x in spells that last minutes, so a
before/after is quoted only from runs of both sides made side by side.
The base commit's files are exported with ``git archive`` into a
temporary directory: exactly what was committed, and nothing to clean up
in the repository if a run is killed. The head side is this checkout,
and it must be committed: the runner refuses a working tree with any
change or untracked file besides ``--out``, so the JSON names the two
commits it measured. Both sides must hold the same ``BENCHMARK.json`` and
``perfbench/``, or the runner refuses to start.

Each workload gets 10 pairs of ``--trace 0`` runs of the command
``BENCHMARK.json`` names, at its ``run_seconds``, one base and one head
run per pair, with the side that runs first alternating from pair to
pair. Then each side makes one ``--trace 1`` run. The JSON written to
``--out`` holds, per workload and end-to-end metric:

* each side's values, median and quartiles;
* the per-pair head/base ratios, with their median and quartiles;
* ``wins``: pairs in which the head was better, ties counting for
  neither, out of the complete ``pairs``;

and per workload the operations each side attempted and failed, the exit
code of every run (a serve-open run whose load generator fell behind,
exit 3, measured nothing and is made again, up to three attempts), and
both sides' per-layer metrics from the traced runs, with the names of
the counts and ratios that differ. A speed-only change must leave that list
empty on the trial workloads; serve-open's counts follow the host's
timing, so they may differ there.

Workloads default to every one in ``BENCHMARK.json`` at seed 1;
``trial-dense:7`` names another seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
#: Pairs per workload: enough for a claim's nine-of-ten wins rule.
PAIRS = 10
SIDES = ("base", "head")
#: perfbench's exit code for a serve-open run whose load generator fell
#: behind its schedule: the run measured nothing, so it is made again.
INVALID_EXIT = 3
MAX_INVALID_REPEATS = 3


def git(*args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(REPO_ROOT), *args], check=True, capture_output=True
    )
    return out.stdout.decode().rstrip()


def export_commit(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", commit],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def summary(values: List[float]) -> Dict[str, object]:
    """Median and quartiles (``statistics.quantiles(values, n=4)``, as
    perfbench/BASELINE.md reports spread); None without values."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else None
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_once(
    command: List[str], root: Path, workload: str, seed: int, seconds: float, trace: int
) -> Tuple[List[int], Optional[Dict[str, object]]]:
    """One benchmark run in ``root``, made again while invalid: the exit
    code of every attempt, and the result line of the last."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--seconds", f"{seconds:g}", "--trace", str(trace)]
    codes: List[int] = []
    while len(codes) < MAX_INVALID_REPEATS:
        proc = subprocess.run(
            command + args, cwd=root, env=env, capture_output=True, text=True
        )
        codes.append(proc.returncode)
        if proc.returncode != INVALID_EXIT:
            break
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return codes, result


def compare(
    bench: Dict[str, object],
    command: List[str],
    roots: Dict[str, Path],
    workload: str,
    seed: int,
    seconds: float,
) -> Dict[str, object]:
    runs: Dict[str, List[Optional[Dict[str, object]]]] = {side: [] for side in SIDES}
    exits: Dict[str, List[int]] = {side: [] for side in SIDES}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            codes, result = run_once(command, roots[side], workload, seed, seconds, 0)
            exits[side].extend(codes)
            runs[side].append(result)
            print(f"  {workload}:{seed} pair {pair + 1} {side}: exit {codes}")
    complete = [
        i for i in range(PAIRS) if all(runs[side][i] is not None for side in SIDES)
    ]

    def value(side: str, i: int, name: str) -> float:
        return float(runs[side][i]["metrics"][name]["value"])  # type: ignore[index]

    end_to_end: Dict[str, object] = {}
    for metric in bench["end_to_end"]:  # type: ignore[union-attr]
        name = metric["name"]
        lower = metric["better"] == "lower"
        base = [value("base", i, name) for i in complete]
        head = [value("head", i, name) for i in complete]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        end_to_end[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": summary(base),
            "head": summary(head),
            "ratio": summary([h / b for b, h in zip(base, head)]),
            "wins": wins,
            "pairs": len(complete),
        }

    layers: Dict[str, Dict[str, float]] = {}
    for side in SIDES:
        codes, result = run_once(command, roots[side], workload, seed, seconds, 1)
        print(f"  {workload}:{seed} traced {side}: exit {codes}")
        metrics = result["metrics"] if result else {}
        layers[side] = {k: v["value"] for k, v in metrics.items()}  # type: ignore
    # Counts and count ratios; trace.* describe the tracer, not the program.
    # A count missing from either side (no traced result) also differs.
    counted = [
        m["name"]
        for m in bench["per_layer"]  # type: ignore[union-attr]
        if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")
    ]
    return {
        "workload": workload,
        "seed": seed,
        "end_to_end": end_to_end,
        "attempted": {s: sum(r["attempted"] for r in runs[s] if r) for s in SIDES},
        "failed": {s: sum(r["failed"] for r in runs[s] if r) for s in SIDES},
        "exit_codes": exits,
        "layers": layers,
        "counts_differ": [
            name
            for name in counted
            if name not in layers["base"]
            or layers["base"].get(name) != layers["head"].get(name)
        ],
    }


def print_table(entry: Dict[str, object]) -> None:
    print(f"{entry['workload']} seed {entry['seed']}")
    for name, m in entry["end_to_end"].items():  # type: ignore[union-attr]
        if not m["pairs"]:
            print(f"  {name:12s} no complete pair")
            continue
        print(
            f"  {name:12s} base {m['base']['median']:10.4g}  head "
            f"{m['head']['median']:10.4g}  head/base {m['ratio']['median']:.3f} "
            f"[{m['ratio']['q1']:.3f}, {m['ratio']['q3']:.3f}]  "
            f"wins {m['wins']}/{m['pairs']}"
        )
    print(f"  counts that differ: {entry['counts_differ'] or 'none'}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD[:SEED]")
    args = parser.parse_args(argv)

    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    command = list(bench["command"])
    if command[0].startswith("python"):
        command[0] = sys.executable
    specs = args.workloads or [w["name"] for w in bench["workloads"]]
    targets = []
    for spec in specs:
        name, _, seed = spec.partition(":")
        targets.append((name, int(seed) if seed else DEFAULT_SEED))

    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    changed = git("diff", "--name-only", base, "--", "BENCHMARK.json", "perfbench")
    if changed:
        # Both sides must run the same benchmark, or the pairs compare
        # two benchmarks instead of two programs.
        parser.error(f"the benchmark differs from {base[:12]}: {changed.split()}")
    out = args.out.resolve()
    dirty = [
        line
        for line in git("status", "--porcelain", "--untracked-files=all").splitlines()
        if REPO_ROOT / line[3:] != out
    ]
    if dirty:
        # The head side runs from this checkout, so what it measures must
        # be a commit the JSON can name.
        parser.error(f"commit or remove these first: {dirty}")
    doc: Dict[str, object] = {
        "tool": "benchmarks/ab.py",
        "base": base,
        "head": git("rev-parse", "HEAD"),
        "command": bench["command"],
        "seconds": seconds,
        "pairs": PAIRS,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        export_commit(base, Path(tmp))
        roots = {"base": Path(tmp), "head": REPO_ROOT}
        for name, seed in targets:
            entry = compare(bench, command, roots, name, seed, seconds)
            doc["workloads"][f"{name}:{seed}"] = entry  # type: ignore[index]
            print_table(entry)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
