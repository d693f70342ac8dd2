"""Shared benchmark harness: where a benchmark's rendered table lands.

Every benchmark writes its table to ``benchmarks/results/<name>.txt``
and prints it, so a benchmark run leaves the regenerated figures on
disk.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
