"""Ratchets: options, ``src/repro`` and its ``fleet.py``, ``sim/``, ``stats.py`` and
``net/`` may only shrink, and no definition there is reached only by the tests.

Every independently settable option doubles the configurations the tests and
benchmarks have to cover.  The budget below is the count at the last PR that
touched it; lower it when you delete an option, and do not raise it.

``FLEET_CODE_LINE_BUDGET`` is the same ratchet for ``cluster/fleet.py``
(ROADMAP: split ``Fleet``; target < 600 — PR 22 took the first cut, the card
itself, to ``cluster/card.py``) and ``SIM_CODE_LINE_BUDGET`` for all of
``src/repro/sim/``: the kernel is a heap, a deque and a counter, and a
primitive or a clock feature no model code uses does not come back.
``STATS_CODE_LINE_BUDGET`` (``cluster/stats.py``) and ``NET_CODE_LINE_BUDGET``
(all of ``src/repro/net/``) are what ships — the ``record_*`` methods
whose counters the layers now write themselves are gone from the first, the
closed-loop client is three kernel entries in the second; ROADMAP item 2
Step B (``FleetSpec``) is expected to lower both.  ``SRC_CODE_LINE_BUDGET``
covers all of ``src/repro``.

:func:`test_no_definition_is_reached_only_by_tests` finds every ``def`` and
``class`` in ``src/repro`` whose name occurs as a word in ``src/``,
``benchmarks/`` and ``examples/`` only at its own definition(s): code that no
model, benchmark or example calls.  Each one is deleted, moved to
``tests/oracles/`` if a test uses it as a reference model, or listed in
``KEPT`` with the reason a user is meant to call it.  A name shared with
another definition hides from the scan, so judge those by hand.

``python tests/test_option_budget.py PATH...`` prints :func:`code_lines` for
files and directories — the counter a PR's before/after table should quote.
"""

import ast
import collections
import dataclasses
import inspect
import io
import pathlib
import re
import sys
import tokenize

import repro.net
import repro.sim
from repro.cluster.fleet import Fleet
from repro.cluster.sharded import ShardedRunConfig, run_sharded
from repro.cluster.stats import FleetStatistics
from repro.core.builder import build_fleet, build_frontdoor
from repro.sim.kernel import Simulator

OPTION_BUDGET = 48
FLEET_CODE_LINE_BUDGET = 676
SIM_CODE_LINE_BUDGET = 324
STATS_CODE_LINE_BUDGET = 471
NET_CODE_LINE_BUDGET = 827
SRC_CODE_LINE_BUDGET = 13_400

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Definitions no code outside ``tests/`` calls, kept because a user calls them.
KEPT = {
    "check/trace.py:ScheduleTrace.from_seed": "replays a saved schedule from its seed string",
    "check/trace.py:ScheduleTrace.to_json": "saves a schedule for replay",
    "check/trace.py:ScheduleTrace.from_json": "loads a saved schedule for replay",
    "core/builder.py:clear_bitstream_cache": "lets a benchmark time cold bit-stream generation",
}

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path) -> int:
    """Lines of *path* holding code: not blank, not comment-only, not docstring."""
    source = pathlib.Path(path).read_text()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def optional_parameters(callable_):
    return [
        name
        for name, parameter in inspect.signature(callable_).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    ]


def test_option_count_does_not_grow():
    options = {
        "Simulator": optional_parameters(Simulator.__init__),
        "Fleet": optional_parameters(Fleet.__init__),
        "build_fleet": optional_parameters(build_fleet),
        "build_frontdoor": optional_parameters(build_frontdoor),
        "ShardedRunConfig": [field.name for field in dataclasses.fields(ShardedRunConfig)],
        "run_sharded": optional_parameters(run_sharded),
    }
    total = sum(len(names) for names in options.values())
    assert total <= OPTION_BUDGET, (
        f"{total} settable options, budget is {OPTION_BUDGET}: {options}. "
        'ROADMAP: "A PR that adds a flag, mode or subsystem must say what it '
        'deletes" — remove an option in the same PR instead of raising the budget.'
    )


def test_fleet_module_does_not_grow():
    count = code_lines(inspect.getsourcefile(Fleet))
    assert count <= FLEET_CODE_LINE_BUDGET, (
        f"cluster/fleet.py has {count} code lines, budget is "
        f"{FLEET_CODE_LINE_BUDGET}: new control-plane behaviour belongs in an "
        "Order (cluster/orders.py) or a strategy object, not in Fleet."
    )


def tree_code_lines(path) -> int:
    """:func:`code_lines` of one file, or of every ``*.py`` under a directory."""
    root = pathlib.Path(path)
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    return sum(code_lines(file) for file in files)


def test_kernel_module_does_not_grow():
    count = tree_code_lines(pathlib.Path(repro.sim.__file__).parent)
    assert count <= SIM_CODE_LINE_BUDGET, (
        f"src/repro/sim/ has {count} code lines, budget is {SIM_CODE_LINE_BUDGET}: "
        "the kernel is (time, seq, fn, a, b) entries on a heap and a deque, one "
        "stepper (resume) and an integer clock — schedule a fact with "
        "schedule_call instead of adding a primitive, and delete what only the "
        "tests call."
    )


def test_stats_module_does_not_grow():
    count = code_lines(inspect.getsourcefile(FleetStatistics))
    assert count <= STATS_CODE_LINE_BUDGET, (
        f"cluster/stats.py has {count} code lines, budget is "
        f"{STATS_CODE_LINE_BUDGET}: a counter with no digest line is written by "
        "the layer that observes the fact, on the registry instrument — not "
        "through a new record_* method here."
    )


def test_src_does_not_grow():
    count = tree_code_lines(SRC)
    assert count <= SRC_CODE_LINE_BUDGET, (
        f"src/repro has {count} code lines, budget is {SRC_CODE_LINE_BUDGET}: "
        "say what the new code deletes, in the same PR."
    )


def definitions(root: pathlib.Path) -> dict:
    """``{"path:Qualified.name": name}`` for every def/class under *root*, dunders aside."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("__"):
                    found[f"{path}:{prefix}{child.name}"] = child.name
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted(root.rglob("*.py")):
        visit(ast.parse(file.read_text()), file.relative_to(root).as_posix(), "")
    return found


def test_no_definition_is_reached_only_by_tests():
    defined = definitions(SRC)
    words = collections.Counter()
    for directory in ("src", "benchmarks", "examples"):
        for file in (REPO / directory).rglob("*.py"):
            words.update(re.findall(r"\w+", file.read_text()))
    definition_count = collections.Counter(defined.values())
    unreached = {key for key, name in defined.items() if words[name] == definition_count[name]}
    assert unreached == set(KEPT), (
        f"reached only by tests: {sorted(unreached - set(KEPT))} — delete it, move a "
        "reference model to tests/oracles/, or add it to KEPT with the reason a user "
        f"calls it; KEPT but no longer unreached: {sorted(set(KEPT) - unreached)}."
    )


def test_net_package_does_not_grow():
    count = tree_code_lines(pathlib.Path(repro.net.__file__).parent)
    assert count <= NET_CODE_LINE_BUDGET, (
        f"src/repro/net/ has {count} code lines, budget is {NET_CODE_LINE_BUDGET}: "
        "say what the new code deletes, in the same PR."
    )


if __name__ == "__main__":
    for argument in sys.argv[1:]:
        print(f"{tree_code_lines(argument):7d}  {argument}")
