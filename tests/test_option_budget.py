"""Ratchets: settable options, ``fleet.py`` and the kernel may only shrink.

Every independently settable option doubles the configurations the tests and
benchmarks have to cover.  The budget below is the count at the last PR that
touched it; lower it when you delete an option, and do not raise it.

``FLEET_CODE_LINE_BUDGET`` is the same ratchet for ``cluster/fleet.py``
(ROADMAP: split ``Fleet``; target < 600 — PR 22 took the first cut, the card
itself, to ``cluster/card.py``) and ``KERNEL_CODE_LINE_BUDGET`` for
``sim/kernel.py``: a primitive no model code yields does not come back.
``python tests/test_option_budget.py PATH...`` prints :func:`code_lines` for
files and directories — the counter a PR's before/after table should quote.
"""

import ast
import dataclasses
import inspect
import io
import pathlib
import sys
import tokenize

from repro.cluster.fleet import Fleet
from repro.cluster.sharded import ShardedRunConfig, run_sharded
from repro.core.builder import build_fleet, build_frontdoor
from repro.sim.kernel import Simulator

OPTION_BUDGET = 48
FLEET_CODE_LINE_BUDGET = 680
KERNEL_CODE_LINE_BUDGET = 178

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


def test_kernel_module_does_not_grow():
    count = code_lines(inspect.getsourcefile(Simulator))
    assert count <= KERNEL_CODE_LINE_BUDGET, (
        f"sim/kernel.py has {count} code lines, budget is "
        f"{KERNEL_CODE_LINE_BUDGET}: the kernel is Timeout, WaitEvent, process "
        "join and the FIFO tier — schedule a fact with schedule_call instead "
        "of adding a primitive."
    )


if __name__ == "__main__":
    for argument in sys.argv[1:]:
        root = pathlib.Path(argument)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        print(f"{sum(code_lines(file) for file in files):7d}  {argument}")
