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
