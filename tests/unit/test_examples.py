"""Every example script imports against the current library, and the
examples written against the node API run to the end.

Each example runs only under ``if __name__ == "__main__"``, so loading
one by path executes its imports and definitions and nothing else. A
change that removes or renames a name an example uses fails here; the
node-API examples also call ``main()``, so a removed attribute fails
them too.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
NODE_API_EXAMPLES = ("adaptive_workload.py", "factory_monitoring.py")


def load(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    load(path)


@pytest.mark.parametrize("name", NODE_API_EXAMPLES)
def test_node_api_example_runs(name, capsys):
    """``adaptive_workload`` asserts its own outcome; both print a
    closing summary."""
    load(EXAMPLES_DIR / name).main()
    out = capsys.readouterr().out
    assert "index versions disseminated" in out or "storage success" in out
