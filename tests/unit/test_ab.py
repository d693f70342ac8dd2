"""``benchmarks/ab.py``: what each benchmark child is started with.

Both sides of an A/B run must start from the same bytecode state. A
checkout's ``__pycache__`` (written by any earlier test run) would let
one side skip compiling that the other side pays for on every run, and
``PYTHONDONTWRITEBYTECODE`` in the caller's environment would make the
uncached side recompile each time.
"""

import importlib.util
import subprocess
from pathlib import Path

AB_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_children_share_one_pycache_prefix_and_may_write_it(monkeypatch, tmp_path):
    ab = load_ab()
    envs = []

    def fake_run(command, cwd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(command, 0, '{"metrics": {}}\n', "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    pycache = tmp_path / "pycache"
    for root in (tmp_path / "base", tmp_path / "head"):
        codes, result = ab.run_once(
            ["python"], root, pycache, "trial-dense", 1, 1.0, 0
        )
        assert codes == [0] and result == {"metrics": {}}
    for env in envs:
        assert env["PYTHONPYCACHEPREFIX"] == str(pycache)
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert "PYTHONPATH" not in env


# ----------------------------------------------------------------------
# The per-metric verdict (choosing-metrics: claims need 9 of 10 wins and a
# median gap beyond the base's spread; a spread wider than the bound is
# unresolved unless every head run beats every base run)
# ----------------------------------------------------------------------
TIGHT_BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
WIDE_BASE = [100.0, 200.0, 110.0, 190.0, 120.0, 180.0, 130.0, 170.0, 140.0, 160.0]


def test_verdict_better_needs_nine_wins_and_a_gap_beyond_the_base_iqr():
    ab = load_ab()
    head = [x * 0.6 for x in TIGHT_BASE]
    assert ab.verdict(TIGHT_BASE, head, lower=True, bound=0.25) == "better"
    # The same runs where higher is better: the head lost every pair.
    assert ab.verdict(TIGHT_BASE, head, lower=False, bound=0.25) == "worse"
    # Eight wins of ten are not enough, however large the gap.
    head[:2] = [200.0, 200.0]
    assert ab.verdict(TIGHT_BASE, head, lower=True, bound=0.25) != "better"


def test_verdict_worse_beyond_the_bound():
    ab = load_ab()
    head = [x * 1.4 for x in TIGHT_BASE]
    assert ab.verdict(TIGHT_BASE, head, lower=True, bound=0.25) == "worse"
    assert ab.verdict(TIGHT_BASE, head, lower=True, bound=0.5) == "within_bound"


def test_verdict_unresolved_when_the_base_spreads_beyond_the_bound():
    ab = load_ab()
    head = list(reversed(WIDE_BASE))
    assert ab.verdict(WIDE_BASE, head, lower=True, bound=0.25) == "unresolved"
    assert ab.verdict([], [], lower=True, bound=0.25) == "unresolved"


def test_verdict_within_bound():
    ab = load_ab()
    head = [x * 1.05 for x in TIGHT_BASE]
    assert ab.verdict(TIGHT_BASE, head, lower=True, bound=0.25) == "within_bound"
    # A wide base is resolved when every head run beats every base run,
    # even if the gap is too small for a claim (50 < the base IQR of 65).
    head = [95.0 + i * 0.1 for i in range(10)]
    assert ab.verdict(WIDE_BASE, head, lower=True, bound=0.25) == "within_bound"
