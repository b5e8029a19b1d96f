"""Ratchets: options, ``src/repro`` and its ``fleet.py``, ``sim/``, ``stats.py`` and
``net/`` may only shrink, no definition there is reached only by the tests, no
option there is set only by the tests, and no field there is only written.

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

:func:`test_no_option_is_set_only_by_tests` is its parameter-level sibling:
every defaulted parameter of an ``__init__``, ``build_*``, ``enable_*``,
``install_*`` or ``use_*`` in ``src/repro`` must be set — by keyword, by
position or through ``*args`` / ``**kwargs`` — by some call in ``src/``,
``benchmarks/`` or ``examples/``, or be listed in ``KEPT_OPTIONS`` with the
reason a user sets it.  An option only the tests turn is a configuration no
workload runs: it becomes the constant it always is (a memory bound, a module
constant the tests monkeypatch).  Dataclass fields and options behind a shared
name hide from it, so judge those by hand.

:func:`test_no_field_is_written_only` is the state-level sibling: every
``self.x = ...`` store and every annotated dataclass field in ``src/repro``
must be read somewhere in ``src/``, ``benchmarks/`` or ``examples/`` — a
counter only ``+=`` touches, a history only ``.append`` grows, is state no
model, benchmark or example looks at.  It is deleted, or listed in
``KEPT_FIELDS`` as an exception's payload, a safety counter a test asserts as
an invariant, or a field of a serialised format.  A name another class reads
hides a field, so judge those by hand.

``python tests/test_option_budget.py PATH...`` prints :func:`code_lines` for
files and directories — the counter a PR's before/after table should quote —
``python tests/test_option_budget.py --options PATH...`` prints each
in-scope definition's options under ``src/repro`` paths, marking with ``*``
those no code outside ``tests/`` sets, and their total, and ``--fields
PATH...`` does the same for fields, ``*`` marking those nothing reads.
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

OPTION_BUDGET = 47
FLEET_CODE_LINE_BUDGET = 656
SIM_CODE_LINE_BUDGET = 318
STATS_CODE_LINE_BUDGET = 467
NET_CODE_LINE_BUDGET = 814
SRC_CODE_LINE_BUDGET = 12_741

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


_OPTION_DEFINITION = re.compile(r"__init__$|(build|enable|install|use)_\w+$")


def module_trees(directory: str) -> list:
    """``(file, parsed module)`` for every ``*.py`` under ``<repo>/<directory>``."""
    return [(file, ast.parse(file.read_text())) for file in sorted((REPO / directory).rglob("*.py"))]


def option_definitions(src_trees) -> dict:
    """``{"path:Qualified.name": (called_as, [(option, position or None), ...])}``.

    One entry per ``__init__`` / ``build_*`` / ``enable_*`` / ``install_*`` /
    ``use_*`` in ``src/repro``, listing its parameters that have a default.
    ``called_as`` is the name a call uses (the class, for an ``__init__``);
    a position counts from the first argument a caller passes, so a method's
    ``self`` has none and a keyword-only option is ``None``.
    """
    found = {}

    def visit(node, path, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _OPTION_DEFINITION.match(child.name):
                    arguments = child.args
                    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
                    static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                    if owner and not static:
                        positional = positional[1:]
                    first_default = len(positional) - len(arguments.defaults)
                    options = [(name, i) for i, name in enumerate(positional) if i >= first_default]
                    options += [
                        (a.arg, None)
                        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
                        if default is not None
                    ]
                    called_as = owner if child.name == "__init__" else child.name
                    found[f"{path}:{prefix}{child.name}"] = (called_as, options)
                visit(child, path, f"{prefix}{child.name}.", None)
            else:
                visit(child, path, prefix, owner)

    for file, tree in src_trees:
        if SRC in file.parents:
            visit(tree, file.relative_to(SRC).as_posix(), "", None)
    return found


def calls_outside_tests(trees) -> dict:
    """``{called name: [(positional arguments, keywords, starred), ...]}`` for
    every call in *trees*.

    ``cls(...)`` calls the enclosing class, ``super().__init__(...)`` each of
    its bases and ``Base.__init__(self, ...)`` ``Base``; ``starred`` is a call
    with ``*args`` or ``**kwargs``, which may set any option.
    """
    calls = collections.defaultdict(list)

    def visit(node, owner, bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                names = [getattr(base, "id", getattr(base, "attr", None)) for base in child.bases]
                visit(child, child.name, names)
                continue
            if isinstance(child, ast.Call):
                function, targets, skipped = child.func, [], 0
                if isinstance(function, ast.Name):
                    targets = [owner if function.id == "cls" and owner else function.id]
                elif isinstance(function, ast.Attribute):
                    value = function.value
                    if function.attr != "__init__":
                        targets = [function.attr]
                    elif isinstance(value, ast.Call) and getattr(value.func, "id", None) == "super":
                        targets = bases
                    elif isinstance(value, ast.Name):
                        targets, skipped = [value.id], 1
                starred = any(isinstance(a, ast.Starred) for a in child.args) or any(
                    k.arg is None for k in child.keywords
                )
                keywords = {k.arg for k in child.keywords}
                for target in targets:
                    calls[target].append((len(child.args) - skipped, keywords, starred))
            visit(child, owner, bases)

    for _, tree in trees:
        visit(tree, None, [])
    return calls


def option_scan():
    """``(definitions, unset)``: :func:`option_definitions`, and
    ``{"path:Qualified.name": [option, ...]}`` for the options no call in
    ``src/``, ``benchmarks/`` or ``examples/`` sets.  Calls match definitions
    by name alone, so a name two definitions share only hides an option."""
    src_trees = module_trees("src")
    definitions = option_definitions(src_trees)
    calls = calls_outside_tests(src_trees + module_trees("benchmarks") + module_trees("examples"))
    unset = {}
    for key, (called_as, options) in definitions.items():
        missing = [
            name
            for name, position in options
            if not any(
                starred or name in keywords or (position is not None and position < count)
                for count, keywords, starred in calls.get(called_as, ())
            )
        ]
        if missing:
            unset[key] = missing
    return definitions, unset


#: Options no code outside ``tests/`` sets, kept because a user sets them.
KEPT_OPTIONS = {}


def test_no_option_is_set_only_by_tests():
    _, unset = option_scan()
    found = {f"{key}({name})" for key, names in unset.items() for name in names}
    assert found == set(KEPT_OPTIONS), (
        f"set only by tests, or by nothing: {sorted(found - set(KEPT_OPTIONS))} — make it "
        "the constant it always is (a memory bound becomes a module constant the tests "
        "monkeypatch), or add it to KEPT_OPTIONS with the reason a user sets it; "
        f"KEPT_OPTIONS but set outside tests/: {sorted(set(KEPT_OPTIONS) - found)}."
    )


def _src_relative(argument) -> str:
    return pathlib.Path(argument).resolve().relative_to(SRC).as_posix()


def _under(key: str, prefix: str) -> bool:
    """Is the ``"path:Qualified.name"`` *key* in the file or directory *prefix*?"""
    path = key.split(":")[0]
    return prefix == "." or path == prefix or path.startswith(prefix + "/")


def print_options(paths) -> None:
    """Print the defaulted options of each in-scope definition under *paths*
    (files or directories in ``src/repro``), ``*`` marking one that no code
    outside ``tests/`` sets, then the totals."""
    definitions, unset = option_scan()
    total = marked = 0
    for argument in paths:
        prefix = _src_relative(argument)
        for key, (_, options) in definitions.items():
            if options and _under(key, prefix):
                names = [name + "*" if name in unset.get(key, ()) else name for name, _ in options]
                total += len(names)
                marked += len(unset.get(key, ()))
                print(f"{key}({', '.join(names)})")
    print(f"{total} options, {marked} set by no code outside tests/ (*)")


#: Fields no code outside ``tests/`` reads, kept for the reason given: an
#: exception's payload, a safety counter a test asserts as an invariant, or a
#: field of a serialised format.
KEPT_FIELDS = {
    "fpga/errors.py:FrameCollisionError.owner": "the exception's payload: who holds the frames",
    "cluster/stats.py:FleetStatistics.unordered_merge_ties": (
        "safety counter: the sharded merge's digest equals the single-process one only "
        "while it is 0 (ROADMAP 4(c))"
    ),
}

#: Calls that write a container without reading it.
_WRITE_ONLY_METHODS = {"append", "extend", "clear"}
#: ``(path under src/repro, function names)`` whose reads of other objects'
#: fields do not count: the hit memo's snapshot and replay copy the model's
#: counters forward, they do not read them.  Their reads of the memo's own
#: ``self.*`` bindings do count.
_COPIERS = ("cluster/fastpath.py", {"_totals", "replay"})


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list
    )


def field_stores(src_trees) -> dict:
    """``{"path:Class.field": field}`` for every ``self.x = ...`` store and every
    annotated dataclass field in ``src/repro``."""
    found = {}

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from targets(element)
        else:
            yield node

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for statement in child.body:
                        if (
                            isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)
                            and "ClassVar" not in ast.unparse(statement.annotation)
                        ):
                            found[f"{path}:{child.name}.{statement.target.id}"] = statement.target.id
                visit(child, path, child.name)
                continue
            if owner and isinstance(child, (ast.Assign, ast.AnnAssign)):
                for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
                    for store in targets(target):
                        if isinstance(store, ast.Attribute) and getattr(store.value, "id", None) == "self":
                            found[f"{path}:{owner}.{store.attr}"] = store.attr
            visit(child, path, owner)

    for file, tree in src_trees:
        if SRC in file.parents:
            visit(tree, file.relative_to(SRC).as_posix(), None)
    return found


def field_loads(trees) -> set:
    """Every attribute name *trees* read, and every string constant in them.

    Not reads: ``+=`` on the attribute or on an item of it, ``.append`` /
    ``.extend`` / ``.clear`` on it, a read on the right of an assignment to
    the same attribute, the names in a ``__slots__``, and reads of anything
    but ``self`` inside :data:`_COPIERS`.
    """
    loads = set()

    def writes(node):
        """The attribute loads *node* makes that only write."""
        if isinstance(node, ast.Assign):
            # ``self.peak = max(self.peak, n)`` reads the field only to write it.
            stored = {(ast.dump(t.value), t.attr) for t in node.targets if isinstance(t, ast.Attribute)}
            for load in ast.walk(node.value):
                if isinstance(load, ast.Attribute) and (ast.dump(load.value), load.attr) in stored:
                    yield load
        elif isinstance(node, ast.AugAssign):
            target = node.target
            while isinstance(target, ast.Subscript):
                target = target.value
                if isinstance(target, ast.Attribute):
                    yield target
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITE_ONLY_METHODS
            and isinstance(node.func.value, ast.Attribute)
        ):
            yield node.func.value

    def visit(node, skipped, copiers, copying):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            return
        copying = copying or (isinstance(node, ast.FunctionDef) and node.name in copiers)
        skipped = skipped | {id(write) for write in writes(node)}
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped
            and not (copying and getattr(node.value, "id", None) != "self")
        ):
            loads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loads.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, skipped, copiers, copying)

    for file, tree in trees:
        in_src = SRC in file.parents
        copiers = _COPIERS[1] if in_src and file.relative_to(SRC).as_posix() == _COPIERS[0] else set()
        visit(tree, frozenset(), copiers, False)
    return loads


def field_scan():
    """``(stores, unread)``: :func:`field_stores`, and the keys of those whose
    field no code in ``src/``, ``benchmarks/`` or ``examples/`` reads.  Reads
    match stores by name alone, so a name two classes share only hides a field."""
    src_trees = module_trees("src")
    stores = field_stores(src_trees)
    loads = field_loads(src_trees + module_trees("benchmarks") + module_trees("examples"))
    return stores, {key for key, name in stores.items() if name not in loads}


def test_no_field_is_written_only():
    _, unread = field_scan()
    assert unread == set(KEPT_FIELDS), (
        f"written but read by no code outside tests/: {sorted(unread - set(KEPT_FIELDS))} — "
        "delete the field and its writes, or add it to KEPT_FIELDS with the reason it is "
        f"kept; KEPT_FIELDS but read outside tests/: {sorted(set(KEPT_FIELDS) - unread)}."
    )


def print_fields(paths) -> None:
    """Print the fields stored under *paths* (files or directories in
    ``src/repro``), ``*`` marking one that no code outside ``tests/`` reads,
    then the totals."""
    stores, unread = field_scan()
    total = marked = 0
    for argument in paths:
        prefix = _src_relative(argument)
        for key in stores:
            if _under(key, prefix):
                total += 1
                marked += key in unread
                print(key + ("*" if key in unread else ""))
    print(f"{total} fields, {marked} read by no code outside tests/ (*)")


#: The scale opt-ins each ledger workload applies (its ``optins_applied``).
#: ``benchmarks/e2e/shapes.py`` passes an opt-in only while the builder still
#: accepts it, so deleting an option the ledger uses changes the benchmark
#: silently; this pins the list.
LEDGER_OPTINS = {
    "fleet_hit_scale": ["stats_mode", "admission_batch"],
    "fleet_hit_default": [],
    "card_reconfig_churn": [],
    "frontdoor_steady": ["stats_mode", "admission_batch"],
    "frontdoor_overload": ["stats_mode", "admission_batch"],
    "frontdoor_traced": ["stats_mode", "admission_batch"],
    "fleet_control_plane": [],
    "fleet_sharded_2": [],
}


def test_the_ledger_applies_the_pinned_opt_ins(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "benchmarks" / "e2e"))
    import shapes

    applied = {}
    for shape_type in shapes.SHAPES:
        shape = shape_type()
        bank = shape.build_bank()
        shape.build_system(bank, shape.make_trace(bank, 11, shape.min_ops), 11)
        applied[shape.name] = shape.optins_applied
    assert applied == LEDGER_OPTINS


if __name__ == "__main__":
    if sys.argv[1:2] == ["--options"]:
        print_options(sys.argv[2:])
    elif sys.argv[1:2] == ["--fields"]:
        print_fields(sys.argv[2:])
    else:
        for argument in sys.argv[1:]:
            print(f"{tree_code_lines(argument):7d}  {argument}")
