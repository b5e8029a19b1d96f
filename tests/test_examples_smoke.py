"""Every script in examples/ must import and run in tiny mode.

Examples are documentation that executes; without coverage they rot the
moment an API changes.  Each example exposes ``main(tiny: bool)`` so this
smoke test can drive the full script cheaply — discovery is by glob, so a new
example is covered (or fails loudly) the day it lands.
"""

import importlib.util
import pathlib
import re

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_PATHS = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_other_test_imports_an_example():
    """A test that imports an example keeps the example's code alive; a cell
    a test needs lives under ``tests/`` (``obs_cells.py``)."""
    importing = re.compile(r"\b(from|import)\s+examples\b")
    here = pathlib.Path(__file__).resolve()
    tests = [path for path in sorted(here.parent.rglob("*.py")) if path != here]
    assert [path.name for path in tests if importing.search(path.read_text())] == []


def test_examples_directory_is_populated():
    assert len(EXAMPLE_PATHS) >= 6
    assert EXAMPLES_DIR / "fleet_gateway.py" in EXAMPLE_PATHS
    assert EXAMPLES_DIR / "rebalance_demo.py" in EXAMPLE_PATHS


@pytest.mark.parametrize("path", EXAMPLE_PATHS, ids=lambda path: path.stem)
def test_example_runs_in_tiny_mode(path, capsys):
    module = load_example(path)
    assert hasattr(module, "main"), f"{path.name} must expose main(tiny=...)"
    module.main(tiny=True)
    output = capsys.readouterr().out
    assert output.strip(), f"{path.name} printed nothing"
