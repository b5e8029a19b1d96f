"""Ratchets: options, ``src/repro`` and its ``fleet.py``, ``sim/``, ``stats.py`` and
``net/`` may only shrink, no definition there is reached only by the tests, no
option there is set only by the tests, no field there is only written, every
function there runs under a shipped user and the statements that do not may
only become fewer, and every option there takes two values under the shipped
users or is kept for a listed reason (``--runs``).

Every independently settable option doubles the configurations the tests and
benchmarks have to cover.  The budgets below are the counts at the last PR
that touched them; lower one when you delete code or an option, never raise
it.  The code-line budgets cover ``cluster/fleet.py`` (ROADMAP: split
``Fleet``; target < 600), ``sim/`` (a heap, a deque and a counter),
``cluster/stats.py``, ``net/`` and all of ``src/repro``.

Three reachability scans share one :class:`Index` of ``src/`` and
``benchmarks/``, built once per session from files :func:`parse` reads once
(the code-line ratchets use the same parse).  ``examples/`` is not read: an
example is documentation that runs (``tests/test_examples_smoke.py``), so
what only an example uses is not kept alive by it.  Each scan fails unless
its ``KEPT*`` dict names the exception with a reason:

- :func:`test_no_definition_is_reached_only_by_tests`: a ``def`` or ``class``
  in ``src/repro`` no model or benchmark uses is deleted, moved to
  ``tests/oracles/`` if a test uses it as a reference model, or kept in
  ``KEPT`` because a user is meant to call it.
- :func:`test_no_option_is_set_only_by_tests`: a defaulted parameter of an
  ``__init__``, ``build_*``, ``enable_*``, ``install_*`` or ``use_*`` that no
  call sets (by keyword, by position or through ``*args`` / ``**kwargs``) is
  a configuration no workload runs: it becomes the constant it always is.
  So is a defaulted field of a frozen dataclass (a spec or config: non-frozen
  result and counter dataclasses are not options) that no call of the class,
  ``with_overrides(...)`` or ``replace(...)`` sets by keyword, by position or
  by a key of a dict passed with ``**`` (:func:`spec_options`).
- :func:`test_no_field_is_written_only`: a ``self.x = ...`` store or annotated
  dataclass field nothing reads — a counter only ``+=`` touches, a history
  only ``.append`` grows — is deleted, unless it is an exception's payload, a
  safety counter a test asserts as an invariant, or a serialised field.

Uses resolve by owner: ``recv.x`` reaches an ``x`` defined or stored in the
classes related to ``recv``'s class — that class, its ancestors and its
subclasses.  ``recv``'s class is known for ``self`` / ``cls``; a name or
``self.attr`` bound by ``C(...)`` or annotated ``C`` (``"C"``,
``Optional[C]``); a call of a function, method or property annotated
``-> C``; and a name bound to any expression that resolves
(``defragmenter = copro.defragmenter``).  A value annotated ``Sequence[C]``
(or built by ``[C(...) for ...]``, ``list(...)``, ``sorted(...)``, a slice)
yields ``C`` when indexed, iterated — also through ``zip`` / ``enumerate``
and a class whose ``__iter__`` is annotated ``-> Iterator[C]`` — or passed to
``min`` / ``max``, and a lambda passed beside it
(``min(cards, key=lambda card: ...)``) takes ``C``.  A name that still does
not resolve is an instance of the classes that have every attribute it is
used with in its function (attributes no class has aside); if none has them
all, ``recv.x`` reaches every ``x``.  A bare name reaches a definition outside
a class.  A string constant where it can name an attribute — a call argument
(but a ``setattr`` name), an element of an assigned or iterated tuple, list
or set — reaches anything of its name (``getattr`` dispatch); the strings of
a module's ``__all__`` reach nothing.  Reaching grows from the roots, the
uses outside every definition (module code under ``src/``, all of
``benchmarks/``): a use counts once every definition around it is reached,
to the least fixed point, so two definitions that only name each other stay
unreached.  A definition's use of itself never counts.  ``C(...)`` sets
``C.__init__``'s options, ``super().__init__`` each base's.

The static scans see names, not runs: a common method name or a use on a
path no workload takes keeps a function alive.  So a runtime leg, ``python
tests/test_option_budget.py --runs`` (60-100 s under the tracer on 2 vCPUs,
CI's ``fingerprints`` job), runs every shipped user once in this process
under one ``sys.settrace`` / ``threading.settrace`` hook
(:func:`shipped_users`: the twelve report builders, ``fingerprints.py --check
--tiny``, each ledger shape in the worker's traced mode, one shard's worker
body) that sees every call and, for a code object under ``src/repro`` with a
statement still to run, its lines (:func:`traced_runs`).  It checks two
levels, and takes a cache census and an option census:

- *Functions.*  It lists each function under ``src/repro`` whose code never
  ran, dunders included (a ``__repr__`` and a body that is only a docstring,
  ``...``, ``pass`` or ``raise NotImplementedError``, an interface, aside),
  and fails unless those are exactly the functions ``KEPT`` and
  ``KEPT_RUNS`` name: a safety path, a model path no shipped cell reaches, a
  base default every subclass overrides, or the callee of a ``KEPT`` entry.
- *Statements.*  A statement in a ``src/repro`` function none of whose own
  lines ran (a compound statement's own lines are its header) is *residue*
  (:func:`line_residue`).  A ``raise``, anything in an ``except`` handler, a
  docstring, and every statement of a ``__repr__``, of an interface or of a
  function ``KEPT`` / ``KEPT_RUNS`` names are not.  It prints the residue per
  function and fails when the total exceeds ``LINE_RESIDUE_BUDGET``: what is
  left is error handling a call can reach, an empty-input return, or a
  branch of a model no shipped cell takes, and the budget only goes down.
- *Caches.*  Every cache in ``src/repro`` (:func:`caches`: an ``lru_cache``,
  a ``cached_property``, a ``*Cache`` / ``*Memo`` class, a dict named
  ``*_cache``, ``*_memo`` or ``_CACHE``) is named in ``CACHES`` with the
  shipped user it serves (:func:`test_every_cache_names_its_user`, tier-1).
  :class:`CacheCensus` wraps each one from here for the run and prints a
  ``cache:`` row of hits/misses per shipped user; it fails when a cache no
  shipped user hits: such a cache saves no work, so it goes.
- *Options.*  :class:`OptionCensus` records the distinct values the shipped
  users pass each option the scan lists, a frozen dataclass's fields
  included, defaults counted: a primitive by value, any other object by
  identity, so two injected clocks, recorders or RNGs are two values.  It
  prints an ``option:`` row (the one value, or ``no call``) for each option
  with fewer than two values, and fails unless those are exactly the options
  ``KEPT_VALUES`` names, each for one of four reasons: ``benchmarks/e2e``
  passes it, a seed, a record or format field, or its second value comes
  only from an example or a ``bench_e*.py`` timing test.  Any other such
  option is the constant it always is: it becomes its module's constant,
  with its validation and any branch on it
  (:func:`test_every_kept_value_is_an_option_the_scan_lists`, tier-1, keeps
  the dict's keys and reasons honest).

``python tests/test_option_budget.py PATH...`` prints :func:`code_lines` for
files and directories — the counter a PR's before/after table should quote —,
``--scan PATH...`` prints the definitions, options and fields under
``src/repro`` paths, ``*`` marking each one nothing outside ``tests/``
reaches, sets or reads, then the three totals, and ``--runs`` runs the
runtime leg, printing each function's residue, each cache's census row, each
option's row, each function that never ran and is not kept, each kept one that
ran, each cache no shipped user hit, each option with fewer than two values
that is not kept, each kept one that took two, then the totals.
"""

import ast
import collections
import dataclasses
import dis
import functools
import inspect
import io
import multiprocessing
import pathlib
import re
import sys
import threading
import time
import tokenize

OPTION_BUDGET = 45
FLEET_CODE_LINE_BUDGET = 603
SIM_CODE_LINE_BUDGET = 299
STATS_CODE_LINE_BUDGET = 410
NET_CODE_LINE_BUDGET = 720
SRC_CODE_LINE_BUDGET = 9_980
LINE_RESIDUE_BUDGET = 210

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Definitions no code outside ``tests/`` calls, kept because a user calls them.
KEPT = {
    "check/trace.py:ScheduleTrace.from_seed": "replays a saved schedule from its seed string",
    "check/trace.py:ScheduleTrace.to_json": "saves a schedule for replay",
    "check/trace.py:ScheduleTrace.from_json": "loads a saved schedule for replay",
    "bitstream/codecs/base.py:available_codecs": "lists the names CoprocessorConfig.codec_name accepts",
    "workloads/generators.py:uniform_trace": "the uniform-popularity trace, the baseline for a skewed mix",
    "workloads/generators.py:bursty_trace": "the geometric-burst trace of the generator family",
    "sim/rand.py:SeededRandom.geometric": "draws bursty_trace's burst lengths (KEPT)",
    "workloads/generators.py:repeated_trace": "one function over and over: a pure hit-path trace",
    "workloads/apps.py:hash_server_trace": "one of the three application scenarios apps.py models",
    "workloads/apps.py:dsp_pipeline_trace": "one of the three application scenarios apps.py models",
    "workloads/apps.py:ipsec_gateway_trace": "one of the three application scenarios apps.py models",
    "mcu/microcontroller.py:ExecutionResult.breakdown": (
        "a call's latency by stage; tests/test_hit_formula.py holds it equal to the card-timing "
        "formula term by term"
    ),
    "core/host.py:HostDriver.scrub_card": (
        "the host's only path to the card's SCRUB command; tests/test_host_trace_pin.py pins its PCI trace"
    ),
}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_NOT_CODE |= {tokenize.ENCODING, tokenize.ENDMARKER}


@functools.lru_cache(maxsize=None)
def parse(path: pathlib.Path):
    """``(source, module)`` of the file at the absolute *path*, read and parsed once."""
    source = path.read_text()
    return source, ast.parse(source)


def code_lines(path) -> int:
    """Lines of *path* holding code: not blank, not comment-only, not docstring."""
    source, tree = parse(pathlib.Path(path).resolve())
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(tree):
        first = (node.body or [None])[0] if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else None
        if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def tree_code_lines(path) -> int:
    """:func:`code_lines` of one file, or of every ``*.py`` under a directory."""
    root = pathlib.Path(path)
    return sum(code_lines(file) for file in (sorted(root.rglob("*.py")) if root.is_dir() else [root]))


def optional_parameters(callable_):
    parameters = inspect.signature(callable_).parameters.items()
    return [name for name, parameter in parameters if parameter.default is not inspect.Parameter.empty]


def test_option_count_does_not_grow():
    from repro.cluster.fleet import Fleet
    from repro.cluster.sharded import ShardedRunConfig, run_sharded
    from repro.core.builder import build_fleet, build_frontdoor
    from repro.sim.kernel import Simulator

    options = {
        "Simulator": optional_parameters(Simulator.__init__),
        "Fleet": optional_parameters(Fleet.__init__),
        "build_fleet": optional_parameters(build_fleet),
        "build_frontdoor": optional_parameters(build_frontdoor),
        "ShardedRunConfig": [field.name for field in dataclasses.fields(ShardedRunConfig)],
        "run_sharded": optional_parameters(run_sharded),
    }
    total = sum(len(names) for names in options.values())
    assert total <= OPTION_BUDGET, f"{total} settable options, budget is {OPTION_BUDGET}: {options}. " \
        "A PR that adds a flag, mode or subsystem must say what it deletes: remove an option instead."


def test_fleet_module_does_not_grow():
    assert code_lines(SRC / "cluster/fleet.py") <= FLEET_CODE_LINE_BUDGET, "add Orders, not Fleet code"


def test_kernel_module_does_not_grow():
    assert tree_code_lines(SRC / "sim") <= SIM_CODE_LINE_BUDGET, "use schedule_call, add no kernel primitive"


def test_stats_module_does_not_grow():
    assert code_lines(SRC / "cluster/stats.py") <= STATS_CODE_LINE_BUDGET, "count on the registry, not here"


def test_src_does_not_grow():
    assert tree_code_lines(SRC) <= SRC_CODE_LINE_BUDGET, "say what the new code deletes, in the same PR"


def test_net_package_does_not_grow():
    assert tree_code_lines(SRC / "net") <= NET_CODE_LINE_BUDGET, "say what the new code deletes, in the same PR"


_OPTION_DEFINITION = re.compile(r"__init__$|(build|enable|install|use)_\w+$")
#: Calls that write a container without reading it.
_WRITE_ONLY_METHODS = {"append", "extend", "clear"}
#: ``(path under src/repro, function names)`` whose reads of other objects'
#: fields do not count: the hit memo's snapshot and replay copy the model's
#: counters forward, they do not read them.  Their reads of the memo's own
#: ``self.*`` bindings do count.
_COPIERS = ("cluster/fastpath.py", {"_totals", "replay"})
#: Calls whose result holds what their first argument holds, or is one element of it.
_SAME_TYPE, _ONE_OF = {"list", "tuple", "set", "sorted", "reversed"}, {"min", "max"}
#: Builtin types an annotation may name: a value of one has no attribute of ours.
_BUILTIN = {"str", "int", "float", "bool", "bytes", "bytearray", "list", "dict", "set", "tuple"}
#: Generic types whose parameters are what indexing or iterating one gives.
_CONTAINERS = {"List", "Sequence", "Iterable", "Iterator", "Tuple", "Deque", "Set", "FrozenSet"}
_CONTAINERS |= {"Collection", "Generator", "list", "tuple", "set", "frozenset", "deque"}
_UNKNOWN = ("class", None, None)


def _writes(node):
    """The attribute loads *node* makes only to write: ``+=`` on the attribute
    or an item of it, ``.append`` / ``.extend`` / ``.clear`` on it, and a read
    on the right of an assignment to the same attribute (``self.peak =
    max(self.peak, n)``)."""
    if isinstance(node, ast.Assign):
        stored = {(ast.dump(t.value), t.attr) for t in node.targets if isinstance(t, ast.Attribute)}
        loads = (n for n in ast.walk(node.value) if isinstance(n, ast.Attribute)) if stored else ()
        yield from (n for n in loads if (ast.dump(n.value), n.attr) in stored)
    elif isinstance(node, ast.AugAssign):
        target = node.target
        while isinstance(target, ast.Subscript):
            target = target.value
            if isinstance(target, ast.Attribute):
                yield target
    elif getattr(getattr(node, "func", None), "attr", None) in _WRITE_ONLY_METHODS:
        if isinstance(node.func.value, ast.Attribute):
            yield node.func.value


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _flat(target):
    return [s for e in target.elts for s in _flat(e)] if isinstance(target, (ast.Tuple, ast.List)) else [target]


def _closure(name, edges, seen=frozenset()) -> set:
    return {name}.union(*(_closure(e, edges, seen | {name}) for e in edges.get(name, ()) if e not in seen))


#: What one module, class body or function binds: ``owner`` is the class
#: ``self`` is an instance of, ``body`` whether it is a class body and
#: ``bindings`` each name's ``("class", annotation or class name, None)``,
#: ``("value", expression, scope)`` or ``("element", iterated expression, scope)``.
Scope = collections.namedtuple("Scope", "parent owner body dataclass bindings")


def _scope(parent, owner, body=False, dataclass=False):
    return Scope(parent, owner, body, dataclass, collections.defaultdict(list))


class Index:
    """The definitions, options and fields of the files under *root*, and
    every use of a name, attribute or string in *trees*, ``(file, module)``
    pairs."""

    def __init__(self, trees, root=SRC):
        self._family, self._memo, self.uses, self.calls = {}, {}, [], []
        self._typed, self._named, self._skipped = set(), set(), set()  # ids of bound, named and write-only nodes
        #: class -> its bases' names, base -> its subclasses', (scope, name) -> attributes read from it
        self.bases, self.subclasses, self._used = {}, collections.defaultdict(set), collections.defaultdict(set)
        #: ``(class or None, name)`` -> the bindings of a call's result / of an attribute
        self.returns, self.stores = collections.defaultdict(list), collections.defaultdict(list)
        #: ``{"path:Qualified.name": (name, class it is in or None)}``; an option
        #: definition's is ``(called as, class, [(position, option)])``, a frozen
        #: dataclass's ``specs`` entry ``(name, [init field], [defaulted init field])``.  ``uses``
        #: holds ``(name, receiver, scope, chain, kind)``, ``calls`` ``(called
        #: names, receiver, scope, chain, positional arguments, keywords, starred)``
        self.definitions, self.fields, self.options, self.specs = {}, {}, {}, {}
        #: ``{"path:Qualified.name": (file, node)}`` of each function among the definitions
        self.functions = {}
        for file, tree in trees:
            self._file = file
            self._path = file.relative_to(root).as_posix() if root in file.parents else None
            self._copiers = _COPIERS[1] if self._path == _COPIERS[0] else set()
            self._reexports = file.name == "__init__.py"
            self._visit(tree, _scope(None, None), (), self._path and self._path + ":", False)

    def _visit(self, node, scope, chain, prefix, copying):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.Call)):
                self._skipped.update(map(id, _writes(child)))
            self._node(child, scope, chain, prefix, copying)

    def _node(self, node, scope, chain, prefix, copying):
        """Index *node* inside the definitions *chain*, ``copying`` inside a
        :data:`_COPIERS` function."""
        if isinstance(node, ast.expr_context):
            return
        klass = scope.owner if scope.body else None
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            key = prefix and prefix + node.name
            if key and not node.name.startswith("__"):
                self.definitions[key] = (node.name, klass)
            # A dunder runs without a call by name: the static scans leave it
            # out, the runtime leg judges it.
            if key and not isinstance(node, ast.ClassDef):
                self.functions[key] = (self._file, node)
            scope.bindings[node.name].append(("class", node.name, None))
            if isinstance(node, ast.ClassDef):
                self.bases.setdefault(node.name, set()).update(map(_name, node.bases))
                for base in map(_name, node.bases):
                    self.subclasses[base].add(node.name)
                dataclass = key and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                if dataclass and any("frozen=True" in ast.unparse(d) for d in node.decorator_list):
                    self.specs[key] = (node.name, [], [])
                inner = _scope(scope, node.name, body=True, dataclass=dataclass)
            else:
                copying = copying or node.name in self._copiers
                decorators = {_name(d) for d in node.decorator_list}
                table = self.stores if klass and decorators & {"property", "cached_property"} else self.returns
                table[(klass, node.name)].append(("class", node.returns, None))
                inner = _scope(scope.parent if scope.body else scope, klass or scope.owner)
                arguments = node.args
                for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                    self._typed.add(id(argument))
                    if argument.arg not in ("self", "cls"):
                        inner.bindings[argument.arg].append(("class", argument.annotation, None))
                if key and _OPTION_DEFINITION.match(node.name):
                    # A position counts from the first argument a caller passes.
                    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
                    positional = positional[bool(klass) and "staticmethod" not in decorators:]
                    options = list(enumerate(positional))[len(positional) - len(arguments.defaults):]
                    options += [(None, a.arg) for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults) if d]
                    self.options[key] = (klass if node.name == "__init__" else node.name, klass, options)
            return self._visit(node, inner, chain + (key,), key and key + ".", copying)
        if isinstance(node, ast.Assign):
            targets = set(map(_name, node.targets))
            if targets & {"__slots__", "__all__"}:
                return
            self._named.update(map(id, getattr(node.value, "elts", ())))
            for target in node.targets:
                self._bind(scope, target, ("value", node.value, scope))
        elif isinstance(node, ast.AnnAssign):
            self._bind(scope, node.target, ("class", node.annotation, None))
            if scope.dataclass and "ClassVar" not in ast.unparse(node.annotation):
                self.fields[f"{self._path}:{scope.owner}.{node.target.id}"] = (node.target.id, scope.owner)
                spec = self.specs.get(f"{self._path}:{scope.owner}")
                if spec and "init=False" not in ast.unparse(node.value or ast.Constant(None)):
                    spec[1].append(node.target.id)
                    if node.value is not None:
                        spec[2].append(node.target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            self._named.update(map(id, getattr(node.iter, "elts", ())))
            iterated, targets, call = [node.iter], [node.target], _name(getattr(node.iter, "func", None))
            if call in ("zip", "enumerate") and _flat(node.target)[1:]:  # ``enumerate`` counts, unknown
                iterated, targets = [node.iter] * (call == "enumerate") + node.iter.args, node.target.elts
            for each, target in zip(iterated, targets):
                self._bind(scope, target, ("element", each, scope))
        elif isinstance(node, ast.Call):
            self._call(node, scope, chain)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read = id(node) not in self._skipped and not (copying and _name(node.value) != "self")
            self.uses.append((node.attr, node.value, scope, chain, "read" if read else "write"))
            if isinstance(node.value, ast.Name):
                self._used[(id(scope), node.value.id)].add(node.attr)
        elif isinstance(node, (ast.Name, ast.arg)) and id(node) not in self._typed:
            if isinstance(node, ast.arg) or isinstance(node.ctx, ast.Store):
                scope.bindings[_name(node) or node.arg].append(_UNKNOWN)
            else:
                self.uses.append((node.id, None, scope, chain, "name"))
        elif isinstance(node, ast.alias):
            scope.bindings[(node.asname or node.name).split(".")[0]].append(("class", node.name, None))
            if not self._reexports:
                self.uses.append((node.name, None, scope, chain, "name"))
        elif isinstance(node, ast.Constant) and id(node) in self._named and isinstance(node.value, str):
            self.uses.append((node.value, None, scope, chain, "string"))
        self._visit(node, scope, chain, prefix, copying)

    def _bind(self, scope, target, binding):
        """Bind each name and ``self.x`` in an assignment target; one of several unpacked is unknown."""
        stores = _flat(target)
        for store in stores:
            self._typed.add(id(store))
            binding = binding if len(stores) == 1 else _UNKNOWN
            if isinstance(store, ast.Name):
                scope.bindings[store.id].append(binding)
            owner = scope.owner if scope.body or _name(getattr(store, "value", None)) == "self" else None
            if owner and isinstance(store, (ast.Name, ast.Attribute)):
                self.stores[(owner, _name(store))].append(binding)
                if self._path and isinstance(store, ast.Attribute):
                    self.fields[f"{self._path}:{owner}.{store.attr}"] = (store.attr, owner)

    def _call(self, node, scope, chain):
        """Record the call *node*: ``cls(...)`` calls the enclosing class,
        ``super().__init__(...)`` each of its bases and ``Base.__init__(self,
        ...)`` ``Base``; ``*args`` or ``**kwargs`` may set any option."""
        function, receiver, targets, skipped = node.func, None, [], 0
        arguments = node.args + [k.value for k in node.keywords]
        if "setattr" not in str(_name(function)).replace("_", ""):
            self._named.update(map(id, arguments))
        for key in (a for a in arguments[1:] if isinstance(a, ast.Lambda)):
            for argument in key.args.args:  # ``min(cards, key=lambda card: ...)``
                self._typed.add(id(argument))
                scope.bindings[argument.arg].append(("element", node.args[0], scope))
        value = function.value if isinstance(function, ast.Attribute) else None
        if isinstance(function, ast.Name):
            targets = [scope.owner if function.id == "cls" and scope.owner else function.id]
        elif value is not None and function.attr != "__init__":
            targets, receiver = [function.attr], value
        elif _name(getattr(value, "func", None)) == "super":
            targets = self.bases.get(scope.owner, ())
        elif isinstance(value, ast.Name):
            targets, skipped = [value.id], 1
        starred = any(isinstance(a, ast.Starred) for a in node.args) or None in {k.arg for k in node.keywords}
        keywords = {k.arg for k in node.keywords}
        self.calls.append((targets, receiver, scope, chain, len(node.args) - skipped, keywords, starred))

    def type_of(self, node, scope):
        """The classes *node* evaluates to an instance of, or None if unknowable."""
        key = (id(node), id(scope))
        if key not in self._memo:
            self._memo[key] = frozenset()  # a binding that leads back here adds nothing
            self._memo[key] = self._resolve(node, scope)
        return self._memo[key]

    def _resolve(self, node, scope):
        if isinstance(node, (ast.Subscript, ast.ListComp)):
            types = self.type_of(getattr(node, "value", getattr(node, "elt", None)), scope)
            if isinstance(node, ast.ListComp):
                return types and frozenset(name + "[]" for name in types)
            return types if isinstance(node.slice, ast.Slice) else self._element(types)
        call = isinstance(node, ast.Call)
        function = node.func if call else node
        if isinstance(function, ast.Attribute):
            types = self.type_of(function.value, scope)
            table = self.returns if call else self.stores
            return types and self._union([b for c in self.related(types) for b in table[(c, function.attr)]])
        if not isinstance(function, ast.Name):
            return None
        if function.id in ("self", "cls") and scope.owner:
            return frozenset({scope.owner})
        if call and function.id in _SAME_TYPE | _ONE_OF and node.args:
            types = self.type_of(node.args[0], scope)
            return self._element(types) if function.id in _ONE_OF else types
        if call and function.id not in self.bases:
            return self._union(self.returns[(None, function.id)])
        while scope and function.id not in scope.bindings:
            scope = scope.parent
        return scope and self._union(scope.bindings[function.id])

    def _union(self, bindings):
        found = None
        for kind, node, scope in bindings:
            if kind == "value" and isinstance(node, ast.Constant) and node.value is None:
                continue  # ``self.x = None`` until it is bound
            types = self._annotated(node) if kind == "class" else self.type_of(node, scope)
            types = self._element(types) if kind == "element" else types
            if types is None:
                return None
            found = (found or frozenset()) | types
        return found

    def _annotated(self, node):
        """The classes a class name or an annotation gives: ``C``, ``"C"``,
        ``Optional[C]``, and ``C[]`` (holds ``C``) for ``Sequence[C]`` and the like."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Subscript):
            outer, parts = _name(node.value), getattr(node.slice, "elts", [node.slice])
            if outer != "Optional" and outer not in _CONTAINERS:
                return None
            types = self._union([("class", p, None) for p in parts if getattr(p, "value", 0) is not Ellipsis])
            return types if outer == "Optional" else types and frozenset(name + "[]" for name in types)
        name = node if isinstance(node, str) else _name(node)
        return frozenset({name}) if name in self.bases or name in _BUILTIN else None

    def _element(self, types):
        """What indexing or iterating a value of *types* gives: ``C`` from
        ``C[]``, and from a class whose ``__iter__`` is annotated ``-> Iterator[C]``."""
        found = frozenset()
        for name in types if types is not None else [""]:
            iterated = name.endswith("[]") and [name] or self._union(self.returns[(name, "__iter__")]) or [""]
            if not all(held.endswith("[]") for held in iterated):
                return None
            found |= {held[:-2] for held in iterated}
        return found

    def related(self, types) -> set:
        """*types*, their ancestors and their subclasses."""
        if types not in self._family:
            self._family[types] = set().union(*(_closure(n, self.bases) | _closure(n, self.subclasses) for n in types))
        return self._family[types]

    def _family_of(self, receiver, scope):
        types = receiver and self.type_of(receiver, scope)
        types = types or isinstance(receiver, ast.Name) and self._ducks.get((id(scope), receiver.id))
        return types and self.related(types)

    def _duck_types(self):
        """``{(scope, name): classes}``: the classes that have every attribute a
        name is used with in its function, among the attributes some class has."""
        members, holders = collections.defaultdict(set), collections.defaultdict(set)
        for owner, name in [*self.returns, *self.stores]:
            members[owner].add(name)
        for c in self.bases:  # attribute -> the classes that have or inherit it
            for name in set().union(*(members[a] for a in _closure(c, self.bases))):
                holders[name].add(c)
        return {key: frozenset.intersection(*(frozenset(holders[n]) for n in names if n in holders)) or None
                for key, names in self._used.items() if not holders.keys().isdisjoint(names)}

    def scan(self):
        """``(unreached, unset, unread)``: the definitions nothing reaches,
        ``{option definition: [option no call sets]}`` and the fields nothing
        reads, counting no use inside an unreached definition."""
        self._ducks, named = self._duck_types(), collections.defaultdict(list)
        for key, (name, owner) in [*self.definitions.items(), *self.fields.items()]:
            kinds = {"read", "string"} if key in self.fields else {"read", "write", "string", owner or "name"}
            named[name].append((key, owner, kinds))
        reaches = [
            (chain, [k for k, owner, kinds in named[name] if kind in kinds and (not family or owner in family)])
            for name, receiver, scope, chain, kind in self.uses if name in named
            for family in [self._family_of(receiver, scope)]
        ]
        called, sets = collections.defaultdict(list), collections.defaultdict(list)
        for key, (called_as, owner, _) in self.options.items():
            called[called_as].append((key, owner))
        for targets, receiver, scope, chain, *call in self.calls:
            family = self._family_of(receiver, scope)
            for key, owner in (found for target in targets for found in called[target]):
                if not family or owner in family:
                    sets[key].append((chain, *call))
        live, grown = None, set()
        while grown != live:
            live = grown
            grown = {k for chain, keys in reaches if live.issuperset(self.definitions.keys() & set(chain))
                     for k in keys if k not in chain}
        unreached = (self.definitions.keys() | self.fields.keys()) - live
        unset = {}
        for key, (*_, options) in self.options.items():
            calls = [call for chain, *call in sets[key] if unreached.isdisjoint(chain)]
            unset[key] = [name for position, name in options if not any(
                star or name in words or position is not None and position < n for n, words, star in calls)]
        return unreached & self.definitions.keys(), unset, unreached & self.fields.keys()


#: The calls besides a class's own name that set its fields: the two
#: copy-with-changes helpers, whose receiver the scan does not resolve.
_COPY_SETTERS = {"with_overrides", "replace"}


def _dict_keys(node, bound):
    """The keys a dict display or ``dict(...)`` call *node* builds, a copy
    ``dict(NAME)`` taking the keys *bound* to ``NAME``; else None."""
    if isinstance(node, ast.Dict):
        return {key.value for key in node.keys if isinstance(key, ast.Constant)}
    if isinstance(node, ast.Call) and _name(node.func) == "dict":
        copied = bound[_name(node.args[0])] if node.args else set()
        return copied | {keyword.arg for keyword in node.keywords if keyword.arg}
    return None


def spec_fields_set(trees, fields) -> dict:
    """``{class: the fields calls in *trees* set}`` for *fields*, ``{class:
    its init fields in order}``: a call of the class sets its keywords and the
    fields at the positions it passes, and ``with_overrides(...)`` /
    ``replace(...)`` set their keywords on every class (under the key
    ``None``).  A dict passed with ``**`` sets its keys — built in the call,
    or bound to the name it passes anywhere in the same module (the walk is
    breadth first, so a module constant is bound before a function copies
    it)."""
    found = collections.defaultdict(set)
    for _, tree in trees:
        bound = collections.defaultdict(set)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and (keys := _dict_keys(node.value, bound)) is not None:
                for target in node.targets:
                    bound[_name(target)] |= keys
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (called := _name(node.func)) in fields.keys() | _COPY_SETTERS:
                owner = called if called in fields else None
                for keyword in node.keywords:
                    words = {keyword.arg} if keyword.arg else _dict_keys(keyword.value, bound)
                    found[owner] |= words or bound[_name(keyword.value)]
                if owner:
                    found[owner] |= set(fields[owner][:len(node.args)])
    return found


def spec_options(built, trees) -> dict:
    """``{frozen dataclass: [defaulted field no call in *trees* sets]}`` for
    each frozen dataclass *built* indexed with a defaulted field
    (:func:`spec_fields_set`); each also joins ``built.options``."""
    set_by = spec_fields_set(trees, {name: fields for name, fields, _ in built.specs.values()})
    unset = {}
    for key, (name, _, defaulted) in built.specs.items():
        if defaulted:
            built.options[key] = (name, None, [(None, field) for field in defaulted])
            unset[key] = [field for field in defaulted if field not in set_by[name] | set_by[None]]
    return unset


@functools.lru_cache(maxsize=None)
def index():
    """The :class:`Index` of ``src/`` and ``benchmarks/`` (never ``examples/``
    or ``tests/``), and its scan, whose options include every frozen
    dataclass's defaulted fields."""
    files = [file for part in ("src", "benchmarks") for file in sorted((REPO / part).rglob("*.py"))]
    trees = [(file, parse(file)[1]) for file in files]
    built = Index(trees)
    unreached, unset, unread = built.scan()
    unset.update(spec_options(built, trees))
    return built, (unreached, unset, unread)


def test_no_definition_is_reached_only_by_tests():
    assert index()[1][0] == set(KEPT), "reached only by tests: delete it, move a reference model to " \
        "tests/oracles/, or add it to KEPT with the reason a user calls it"


#: Options no code outside ``tests/`` sets, kept because a user sets them.
KEPT_OPTIONS = {}


def test_no_option_is_set_only_by_tests():
    unset = {f"{key}({name})" for key, names in index()[1][1].items() for name in names}
    assert unset == set(KEPT_OPTIONS), "set only by tests, or by nothing: make it " \
        "the constant it always is (a memory bound becomes a module constant), or add it to KEPT_OPTIONS " \
        "with the reason a user sets it"


#: Fields no code outside ``tests/`` reads, kept for the reason given: an
#: exception's payload, a safety counter a test asserts as an invariant, or a
#: field of a serialised format.
KEPT_FIELDS = {
    "fpga/errors.py:FrameCollisionError.owner": "the exception's payload: who holds the frames",
    "cluster/stats.py:FleetStatistics.unordered_merge_ties": (
        "safety counter: the sharded merge's digest equals the single-process one only "
        "while it is 0 (ROADMAP 4(c))"
    ),
    **{
        f"mcu/microcontroller.py:ExecutionResult.{stage}_time_ns": "a stage of ExecutionResult.breakdown (KEPT)"
        for stage in ("decode", "stage_input", "feed", "collect", "readout")
    },
}


def test_no_field_is_written_only():
    assert index()[1][2] == set(KEPT_FIELDS), "written but read by no code outside tests/: delete the " \
        "field and its writes, or add it to KEPT_FIELDS with the reason it is kept"


def print_scan(paths) -> None:
    """Print the definitions, options and fields in the files or directories
    *paths* under ``src/repro``, ``*`` marking each one no code outside
    ``tests/`` reaches, sets or reads, then the three totals."""
    built, (unreached, unset, unread) = index()
    paths = [pathlib.Path(p).resolve().relative_to(SRC).as_posix() for p in paths]
    found = {"definitions": [(k, k in unreached) for k in built.definitions],
             "options": [(f"{k}({o})", o in unset[k]) for k, (*_, os) in built.options.items() for _, o in os],
             "fields": [(k, k in unread) for k in built.fields]}
    for what, keys in found.items():
        found[what] = [(k, m) for k, m in keys if any(p in (".", k.split(":")[0]) or k.startswith(f"{p}/") for p in paths)]
        print("".join(f"{key}{'*' * marked}\n" for key, marked in found[what]), end="")
    print("; ".join(f"{len(keys)} {what} ({sum(m for _, m in keys)} *)" for what, keys in found.items()))


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


#: Functions the static scan finds a use of that no shipped user runs, kept
#: for the reason given: a safety path, a model path no shipped cell reaches,
#: a base default every subclass overrides, or the callee of a ``KEPT`` entry.
KEPT_RUNS = {
    "fpga/frame.py:no_such_frame": "the error an unknown frame address raises; no model input names one",
    "fpga/errors.py:FrameCollisionError.__init__": (
        "the error a write over another function's frames raises; no shipped cell's placement collides"
    ),
    "fpga/config_memory.py:ConfigurationMemory.release": (
        "the rollback after a refused configuration transfer; no shipped cell's transfer fails"
    ),
    "cluster/stats.py:FleetStatistics.record_migration_failed": (
        "counts a migration whose transfer failed; no shipped cell's migration fails"
    ),
    "cluster/arrivals.py:_restamp": (
        "re-stamps a trace onto a reused kernel's clock: a second run of one fleet, which no shipped cell makes"
    ),
    "obs/slo.py:SloEngine.on_fleet_bad": (
        "an availability SLO's bad event (a rejection or an expired deadline); no shipped cell judges "
        "fleet availability"
    ),
    "obs/incident.py:FlightRecorder.on_fault": (
        "puts a card kill or an upset on the flight recorder's timeline; no shipped cell records faults"
    ),
    "obs/context.py:DeviceSpans.first": (
        "cuts a device-span reference where a tracer's capacity or the tail sampler's per-trace bound "
        "falls inside it; no shipped cell fills either bound"
    ),
    "sim/schedule.py:SchedulePolicy.choose": "the base default (index 0) that every subclass overrides",
    "core/coprocessor.py:AgileCoprocessor.scrub": "runs under HostDriver.scrub_card (KEPT)",
    "mcu/microcontroller.py:Microcontroller.scrub": "runs under HostDriver.scrub_card (KEPT)",
    "check/trace.py:ScheduleTrace.seed": "runs under ScheduleTrace.from_seed (KEPT)",
}


#: Every cache in ``src/repro`` (:func:`caches`) and the shipped user it
#: serves.  ``--runs`` prints each one's hits and misses per shipped user.  A
#: process-global one (an ``lru_cache``, a module's dict, the
#: ``BitstreamCache`` singleton) outlives the run that filled it, so its entry
#: says why a hit cannot change an answer.
CACHES = {
    "fpga/geometry.py:FabricGeometry.tiles_per_column": (
        "the placer's contiguous-run scan and every frame address check, on every load"
    ),
    "fpga/geometry.py:FabricGeometry.frame_count": (
        "the mini OS's capacity check on every load, the rebalancer's free frames and the baselines' device size"
    ),
    "fpga/geometry.py:FabricGeometry.frame_config_bytes": (
        "every frame's byte length: its erased image, the port's time and a migration blob's frame-size check"
    ),
    "fpga/geometry.py:_raster": (
        "FabricGeometry.all_frames, which each card's configuration memory and placer take; "
        "process-global: a geometry is a frozen value, so a hit returns the addresses a miss builds"
    ),
    "fpga/bitgen.py:BitstreamCache": (
        "each card's ROM download renders and compresses a bank function once per process, and "
        "benchmarks/e2e/worker.py reads its stats(); process-global: its key holds every input of "
        "the bytes, so a hit is byte-identical to a fresh render"
    ),
    "fpga/frame.py:erased_image": (
        "every Frame and every configuration memory: the erased image and its check word; "
        "process-global: a pure function of the frame length"
    ),
    "obs/names.py:device_span_name": (
        "a traced card's device-span bridge, once per device event; process-global: a pure "
        "function of two strings"
    ),
    "bitstream/format.py:Bitstream.payload_crc": "the port's CRC check on every load of a decoded image",
    "bitstream/format.py:Bitstream.check_words": "the memory's check words on every load of a decoded image",
    "functions/base.py:HardwareFunction._netlist_cache": "each function's netlist, read for its executor and footprint",
    "functions/base.py:HardwareFunction._executor_cache": "the executor the fabric binds on every load",
    "functions/base.py:HardwareFunction._frames_cache": "the footprint the mini OS plans every load from",
    "functions/crypto/des.py:_tables": (
        "every Des() the bank's des and 3des build; process-global: the tables are constants "
        "of the cipher"
    ),
    "functions/dsp/fft.py:_plan": (
        "every fft call's butterfly plan; process-global: a pure function of the length"
    ),
    "cluster/fastpath.py:ServeMemo": "the fleet's hit fast path: a resident hit replays its recorded serve",
    "analysis/sketch.py:StreamingQuantileSketch._bucket_memo": (
        "the fleet's latency sketches, where a latency repeats: 51-56 % of adds hit on the three "
        "frontdoor_* ledger workloads (ROADMAP 23), and the front door pins its builtins per request"
    ),
    "mcu/config_module.py:ConfigurationModule._decode_memo": (
        "every load of a function after its first on a card: the miss path decodes an image once"
    ),
    "check/scenarios.py:_CACHE": (
        "the model checker's schedules share one scenario's bank and trace; process-global: "
        "both are built from the key alone and no run changes them"
    ),
}

#: A cache's name: a ``*Cache`` / ``*Memo`` class, or a dict bound to a module
#: global or a ``self`` attribute named ``*_cache``, ``*_memo`` or ``_CACHE``.
_CACHE_CLASS, _CACHE_NAME = re.compile(r"(Cache|Memo)$"), re.compile(r"_(cache|memo)$", re.IGNORECASE)
_CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _dict_built(node) -> bool:
    return isinstance(node, ast.Dict) or _name(getattr(node, "func", None)) in ("dict", "OrderedDict")


def _caches_in(node, prefix, owner=None):
    """``(key, kind)`` of each cache :func:`caches` finds under *node*, whose
    definitions have keys *prefix* + name; *owner* is the key prefix of the
    class ``self`` is an instance of."""
    for child in ast.iter_child_nodes(node):
        name = getattr(child, "name", None)
        if isinstance(child, ast.ClassDef):
            if _CACHE_CLASS.search(name):
                yield prefix + name, "class"
            yield from _caches_in(child, f"{prefix}{name}.", f"{prefix}{name}.")
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = {_name(getattr(d, "func", d)) for d in child.decorator_list}
            for kind in decorators & _CACHE_DECORATORS:
                yield prefix + name, "cached_property" if kind == "cached_property" else "lru_cache"
            yield from _caches_in(child, f"{prefix}{name}.", owner)
            continue
        if isinstance(child, (ast.Assign, ast.AnnAssign)) and _dict_built(child.value):
            for target in getattr(child, "targets", [getattr(child, "target", None)]):
                if isinstance(node, ast.Module) and isinstance(target, ast.Name) and _CACHE_NAME.search(target.id):
                    yield prefix + target.id, "global"
                elif owner and isinstance(target, ast.Attribute) and _name(target.value) == "self" \
                        and _CACHE_NAME.search(target.attr):
                    yield owner + target.attr, "attribute"
        yield from _caches_in(child, prefix, owner)


def caches() -> dict:
    """``{"path:Qualified.name": kind}`` of every cache in ``src/repro``: an
    ``lru_cache`` (or ``cache``) function, a ``cached_property``, a ``*Cache``
    / ``*Memo`` class (``"class"``), and a dict bound to a module global
    (``"global"``) or a ``self`` attribute (``"attribute"``, keyed by its
    class) named ``*_cache``, ``*_memo`` or ``_CACHE``."""
    return {
        key: kind
        for file in sorted(SRC.rglob("*.py"))
        for key, kind in _caches_in(parse(file)[1], f"{file.relative_to(SRC).as_posix()}:")
    }


def test_every_cache_names_its_user():
    found = caches()
    assert found.keys() == CACHES.keys(), "a cache CACHES does not name (add it with the shipped user " \
        f"it serves, or delete it): {sorted(found.keys() - CACHES.keys())}; named but gone: " \
        f"{sorted(CACHES.keys() - found.keys())}"


#: The method the census wraps on each ``*Cache`` / ``*Memo`` class, and the
#: counter of the instance's own that a hit moves.
_CLASS_PROBES = {
    "fpga/bitgen.py:BitstreamCache": ("lookup", "hits"),
    "cluster/fastpath.py:ServeMemo": ("replay", "replays"),
}


class _CountingDict(dict):
    """A cache dict that counts its lookups, ``get`` and ``in``, in
    ``counts``: ``[hits, misses]``, a hit finding the key."""

    def __init__(self, entries, counts):
        super().__init__(entries)
        self.counts = counts

    def get(self, key, default=None):
        found = dict.__contains__(self, key)
        self.counts[not found] += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        found = dict.__contains__(self, key)
        self.counts[not found] += 1
        return found


class _CountingProperty:
    """Stands in for a ``cached_property`` and counts its reads in ``counts``:
    a hit finds the value in the instance's dict.  It is a data descriptor,
    so a read reaches it even once the value is stored."""

    def __init__(self, cached, counts):
        self.cached, self.counts = cached, counts

    def __get__(self, instance, owner=None):
        if instance is None:
            return self.cached
        found = self.cached.attrname in instance.__dict__
        self.counts[not found] += 1
        return instance.__dict__[self.cached.attrname] if found else self.cached.__get__(instance, owner)

    def __set__(self, instance, value):
        instance.__dict__[self.cached.attrname] = value


class CacheCensus:
    """Hits and misses of each ``CACHES`` entry per shipped user, counted by
    wrapping the caches from here, so ``src/`` keeps no counter: an
    ``lru_cache``'s own ``cache_info``, a counting stand-in for a
    ``cached_property``, a wrapped probe method on a class
    (:data:`_CLASS_PROBES`), and a counting dict in place of a module's dict
    or, through a wrapped ``__init__``, of each new instance's."""

    def __init__(self):
        #: ``{key: {user: (hits, misses)}}``
        self.rows = collections.defaultdict(dict)
        self._read, self._undo, self._last = {}, [], {}

    def _swap(self, holder, attribute, value):
        self._undo.append((holder, attribute, holder.__dict__[attribute]))
        setattr(holder, attribute, value)

    def install(self):
        import importlib

        for key, kind in caches().items():
            path, qualified = key.split(":")
            module = importlib.import_module("repro." + path[:-3].replace("/", "."))
            owner, _, name = qualified.rpartition(".")
            holder = getattr(module, owner) if owner else module
            counts = [0, 0]
            self._read[key] = counts.copy
            if kind == "lru_cache":
                info = getattr(holder, name).cache_info
                self._read[key] = lambda info=info: list(info()[:2])
            elif kind == "cached_property":
                self._swap(holder, name, _CountingProperty(holder.__dict__[name], counts))
            elif kind == "class":
                cls, (method, counter) = getattr(holder, name), _CLASS_PROBES[key]
                self._swap(cls, method, self._probe(getattr(cls, method), counter, counts))
            elif kind == "attribute":
                self._swap(holder, "__init__", self._counting_init(holder.__init__, name, counts))
            elif kind == "global":
                self._swap(module, name, _CountingDict(getattr(module, name), counts))
        self._last = {key: read() for key, read in self._read.items()}

    @staticmethod
    def _probe(original, counter, counts):
        @functools.wraps(original)
        def probe(self, *args, **kwargs):
            before = getattr(self, counter)
            result = original(self, *args, **kwargs)
            counts[getattr(self, counter) == before] += 1
            return result

        return probe

    @staticmethod
    def _counting_init(init, attribute, counts):
        @functools.wraps(init)
        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            setattr(self, attribute, _CountingDict(getattr(self, attribute), counts))

        return counting_init

    def restore(self):
        while self._undo:
            setattr(*self._undo.pop())

    def counted(self, drivers):
        """*drivers*, each recording its counts under its name when it
        returns; the first installs the census, so the modules it imports are
        imported under the tracer."""

        def wrap(driver):
            @functools.wraps(driver)
            def run():
                if not self._read:
                    self.install()
                driver()
                for key, read in self._read.items():
                    now = read()
                    self.rows[key][driver.__name__] = tuple(n - was for n, was in zip(now, self._last[key]))
                    self._last[key] = now

            return run

        return [wrap(driver) for driver in drivers]

    def lines(self):
        """One ``cache: key: user hits/misses, ...`` line per cache."""
        return [
            f"cache: {key}: " + ", ".join(f"{user} {hits}/{misses}" for user, (hits, misses) in users.items())
            for key, users in sorted(self.rows.items())
        ]


#: Why an option the shipped users pass one value is kept (``KEPT_VALUES``),
#: the only reasons there are: otherwise it is the constant it always is.
E2E = "benchmarks/e2e passes it, so it waits for ROADMAP item 2 Step B"
SEED = "a seed"
RECORD = "a record or format field"
ELSEWHERE = "its second value comes only from an example or a bench_e*.py timing test"

#: Options (``path:Qualified.name(option)``, as ``--scan`` lists them) that
#: the shipped users pass fewer than two values, each kept for one of the
#: reasons above.
KEPT_VALUES = {
    "bitstream/format.py:BitstreamHeader(flags)": RECORD,
    "check/trace.py:ScheduleTrace(digest)": RECORD,
    "check/trace.py:ScheduleTrace(violations)": RECORD,
    "workloads/multitenant.py:FleetRequest(deadline_ns)": RECORD,
    "cluster/sharded.py:ShardedRunConfig(config_seed)": SEED,
    "cluster/sharded.py:ShardedRunConfig(trace_seed)": SEED,
    "mcu/minios/policies.py:RandomPolicy.__init__(seed)": SEED,
    "workloads/multitenant.py:StreamingFleetTrace.__init__(seed)": SEED,
    "cluster/dispatch.py:StaticHashPolicy.__init__(total_cards)": E2E,
    "cluster/sharded.py:ShardedRunConfig(mean_interarrival_ns)": E2E,
    "cluster/sharded.py:ShardedRunConfig(queue_depth)": E2E,
    "cluster/sharded.py:ShardedRunConfig(skew)": E2E,
    "cluster/sharded.py:ShardedRunConfig(tenants)": E2E,
    "cluster/sharded.py:ShardedRunConfig(total_cards)": E2E,
    "core/builder.py:build_frontdoor(gateways)": E2E,
    "net/frontdoor.py:FrontDoor.__init__(gateways)": E2E,
    "net/link.py:LinkSpec(jitter_ns)": E2E,
    "net/link.py:LinkSpec(latency_ns)": E2E,
    "workloads/multitenant.py:StreamingFleetTrace.__init__(mean_interarrival_ns)": E2E,
    "core/builder.py:build_coprocessor(download)": ELSEWHERE,
    "obs/tail.py:TailSampler.__init__(slow_ns)": ELSEWHERE,
    "workloads/generators.py:FunctionChooser.__init__(payload_blocks)": ELSEWHERE,
    "workloads/generators.py:TraceGenerator.__init__(payload_blocks)": ELSEWHERE,
    "workloads/multitenant.py:TenantSpec(mix)": ELSEWHERE,
}


def test_every_kept_value_is_an_option_the_scan_lists():
    listed = {f"{key}({name})" for key, (*_, options) in index()[0].options.items() for _, name in options}
    assert KEPT_VALUES.keys() <= listed, "KEPT_VALUES names an option the scan no longer lists (delete " \
        f"the entry): {sorted(KEPT_VALUES.keys() - listed)}"
    assert set(KEPT_VALUES.values()) <= {E2E, SEED, RECORD, ELSEWHERE}, "a KEPT_VALUES reason outside the list"


def _by_value(value) -> bool:
    """Whether *value* is compared by value (a number, a string, ``None`` or a
    tuple of those), not by identity."""
    if isinstance(value, (tuple, frozenset)):
        return all(map(_by_value, value))
    return value is None or isinstance(value, (bool, int, float, str, bytes))


class OptionCensus:
    """The values each option of ``src/repro`` takes under the shipped users:
    the first value of each, until a second distinct one makes the option
    *varied* (a value is compared by value when :func:`_by_value`, else by
    identity, so two injected clocks are two values).  ``--runs`` fails on
    an option with fewer than two values that ``KEPT_VALUES`` does not name.

    :meth:`recorder` is asked once per code object the tracer sees: an
    option definition's function (found by file, first line and name) or a
    frozen dataclass's generated ``__init__`` (found by the module file and
    qualified name of the class in ``self``'s MRO that defines it, under
    *root*) gets a recorder that reads the options from the call's
    arguments, defaults included."""

    def __init__(self, built, root=SRC):
        self._root = root
        #: ``{(resolved file, first line, name): (key, [option])}``
        self._functions = {}
        #: ``{key: [option]}`` of each frozen dataclass with defaulted fields
        self._specs = {}
        self.options = []
        for key, (_, _, options) in built.options.items():
            names = [name for _, name in options]
            self.options += [f"{key}({name})" for name in names]
            if key in built.functions:
                file, node = built.functions[key]
                line = min(d.lineno for d in [node, *node.decorator_list])
                self._functions[(file.resolve(), line, node.name)] = key, names
            else:
                self._specs[key] = names
        #: ``{option: its one value so far}`` and the options with two values
        self.first, self.varied = {}, set()

    def recorder(self, frame):
        """A callable that records the options of a call of *frame*'s code,
        or None if the code has none (a generator's resumption would re-read
        its locals, so a generator has none)."""
        code = frame.f_code
        if code.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE):
            return None
        if code.co_filename == "<string>" and code.co_name == "__init__":
            cls = next((c for c in type(frame.f_locals.get("self")).__mro__
                        if getattr(c.__dict__.get("__init__"), "__code__", None) is code), object)
            file = getattr(sys.modules.get(cls.__module__), "__file__", None)
            path = file and pathlib.Path(file).resolve()
            root = self._root
            found = path and root in path.parents and f"{path.relative_to(root).as_posix()}:{cls.__qualname__}"
            key, names = found, self._specs.get(found)
        else:
            key, names = self._functions.get((pathlib.Path(code.co_filename).resolve(), code.co_firstlineno,
                                              code.co_name), (None, None))
        if not names:
            return None
        watched = [(name, f"{key}({name})") for name in names]
        first, varied = self.first, self.varied

        def record(frame):
            values = frame.f_locals
            for name, option in watched:
                if option in varied:
                    continue
                value = values[name]
                if option not in first:
                    first[option] = value
                    continue
                seen = first[option]
                if seen is value or _by_value(seen) and _by_value(value) and seen == value:
                    continue
                varied.add(option)
                del first[option]  # do not keep a model object alive for the rest of the run

        return record

    def lonely(self) -> dict:
        """``{option: its one value, or None with no call}`` of each option
        with fewer than two values."""
        return {option: self.first.get(option) for option in self.options if option not in self.varied}

    def lines(self):
        """One ``option: key(option): value`` line per option with fewer than
        two values (``no call`` for none)."""
        lonely = self.lonely()
        return [
            f"option: {option}: " + ("no call" if option not in self.first else
                                     repr(value) if _by_value(value) else f"one {type(value).__name__}")
            for option, value in sorted(lonely.items())
        ]


def _interface(node) -> bool:
    """Whether *node*'s body is only a docstring, ``...``, ``pass`` or
    ``raise NotImplementedError``: an interface, not code that runs."""
    return all(
        isinstance(statement, ast.Pass)
        or isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
        or isinstance(statement, ast.Raise)
        and _name(getattr(statement.exc, "func", statement.exc)) == "NotImplementedError"
        for statement in node.body
    )


def traced_runs(*drivers, checked=None, census=None):
    """``(code objects, {file: lines})``: the code object of every call
    *drivers* make, each driver called in turn under a tracer in this thread
    and in every thread it starts, and which lines of the *checked*
    statements (``{resolved file: checked_statements(...)}``) ran.  An
    :class:`OptionCensus` *census* records the options of every call.

    A code object gets a local tracer, for its line events, only while one of
    its checked statements has not run, and a statement is done at its first
    line; every other call costs one call event.  Code objects are keyed by
    ``id`` (they stay alive in the result): hashing one reads its constants.
    ``settrace``, not ``setprofile``: the ledger worker's traced mode installs
    ``cProfile``, which would replace a profile hook."""
    #: ``{resolved file: {line: the lines of its statement}}``
    watched = {
        file: {line: own for *_, own in statements for line in own} for file, statements in (checked or {}).items()
    }
    files, codes, waiting, tracers, recorders = {}, {}, {}, {}, {}

    def line_tracer(key, left):
        def lines(frame, event, arg):
            statement = left.pop(frame.f_lineno, None)
            if statement is None:  # a line not watched or already run: the common case
                return lines
            for line in statement:
                left.pop(line, None)
            if left:
                return lines
            tracers[key] = frame.f_trace = None  # every watched line of this code has run

        return lines

    def tracer(frame, event, arg):
        key = id(frame.f_code)
        local = tracers.get(key, tracer)
        if local is tracer:
            code = codes[key] = frame.f_code
            if code.co_filename not in files:
                files[code.co_filename] = watched.get(pathlib.Path(code.co_filename).resolve(), {})
            statement_of = files[code.co_filename]
            left = waiting[key] = {line: statement_of[line] for line in _lines(code) & statement_of.keys()}
            local = tracers[key] = line_tracer(key, left) if left else None
            if census and (record := census.recorder(frame)):
                recorders[key] = record
        record = recorders.get(key)
        if record:
            record(frame)
        return local and local(frame, event, arg)

    # Put back afterwards, so that a coverage run keeps measuring.
    previous = sys.gettrace(), getattr(threading, "gettrace", lambda: None)()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        for driver in drivers:
            started = time.perf_counter()
            driver()
            print(f"{driver.__name__}: {time.perf_counter() - started:.1f} s traced", file=sys.stderr)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    ran = collections.defaultdict(set)
    for key, code in codes.items():
        watched_lines = _lines(code) & files[code.co_filename].keys()
        ran[pathlib.Path(code.co_filename).resolve()] |= watched_lines - waiting[key].keys()
    return set(codes.values()), ran


def never_ran(functions, ran) -> set:
    """The keys of *functions* (:attr:`Index.functions`) that no code object
    in *ran* is, interface bodies and ``__repr__`` aside.  A code object's
    first line is its first decorator's."""
    files = {name: pathlib.Path(name).resolve() for name in {code.co_filename for code in ran}}
    started = {(files[code.co_filename], code.co_firstlineno, code.co_name) for code in ran}
    return {
        key for key, (file, node) in functions.items()
        if not _interface(node) and node.name != "__repr__"
        and (file, min(d.lineno for d in [node, *node.decorator_list]), node.name) not in started
    }


def _lines(code) -> set:
    """The lines *code* holds instructions for, nested code objects aside."""
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def executable_lines(source, path) -> set:
    """The lines of *source* any code object compiled from it holds instructions for."""
    codes, found = [compile(source, str(path), "exec")], set()
    while codes:
        code = codes.pop()
        found |= _lines(code)
        codes += [const for const in code.co_consts if inspect.iscode(const)]
    return found


def _own_lines(statement) -> range:
    """The lines of *statement* no statement nested in it holds: all of a
    simple statement's, a compound one's header (its decorators included)."""
    nested = [s for field in ("body", "handlers", "orelse", "finalbody") for s in getattr(statement, field, ())]
    first = min(node.lineno for node in [statement, *getattr(statement, "decorator_list", ())])
    last = min(s.lineno for s in nested) - 1 if nested else statement.end_lineno
    return range(first, max(first, last) + 1)


def _statements(body, guard=False):
    """``(statement, guard)`` for each statement in *body* and in the blocks
    nested in it, a nested definition's body aside; ``guard`` for a ``raise``
    and for everything in an ``except`` handler."""
    for statement in body:
        yield statement, guard or isinstance(statement, ast.Raise)
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(statement, field, ()), guard)
            for handler in getattr(statement, "handlers", ()):
                yield from _statements(handler.body, True)


def _functions(node, prefix):
    """``(key, node)`` of every function in *node*, nested ones and dunders included."""
    for child in ast.iter_child_nodes(node):
        key = prefix + getattr(child, "name", "")
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield key, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _functions(child, key + ".")


def checked_statements(path, source, kept=()):
    """``(key, statement, lines)`` of each statement :func:`line_residue`
    judges in the module *source* at *path* (relative to the package root):
    each statement in a function, with its own lines that hold instructions.

    Not judged: a ``raise``, anything in an ``except`` handler, a statement
    that holds no instructions (a docstring), and every statement of a
    ``__repr__``, of an interface body or of a function *kept* names (and of
    the functions nested in it)."""
    executable = executable_lines(source, path)
    for key, node in _functions(ast.parse(source), f"{path}:"):
        if node.name == "__repr__" or _interface(node) or any(key == k or key.startswith(k + ".") for k in kept):
            continue
        for statement, guard in _statements(node.body):
            own = set(_own_lines(statement)) & executable
            if own and not guard:
                yield key, statement, own


def line_residue(checked, ran) -> dict:
    """``{"path:Qualified.name": [(first, last) line of each residue statement]}``:
    of the *checked* statements (:func:`checked_statements`), those none of
    whose lines is in *ran*."""
    found = collections.defaultdict(list)
    for key, statement, own in checked:
        if not own & ran:
            found[key].append((statement.lineno, statement.end_lineno))
    return dict(found)


#: The shard user's epoch: the ledger's 100 ms epoch holds all of
#: ``min_ops``, so the worker's epoch loop and the kernel's horizon return
#: would not run; the full-size ledger runs about 120 epochs.
SHARD_EPOCH_NS = 4_000_000


def shipped_users():
    """What ``--runs`` traces, each a callable that runs in this process and
    writes nothing: one shard of ``fleet_sharded_2`` through ``_shard_worker``
    (``run_sharded`` runs it in a child process the tracer does not follow)
    in :data:`SHARD_EPOCH_NS` epochs, the twelve report builders called as
    the ``tests/test_e*.py`` render tests call them, ``fingerprints.py
    --check --tiny``, and each ledger shape in the worker's traced mode at
    its ``min_ops``.  The shard goes first: its epochs run
    ``Simulator.run``'s horizon return, and from then on no call of
    ``Simulator.run`` is line-traced."""
    sys.path[:0] = [str(REPO), str(REPO / "benchmarks" / "e2e")]
    import shapes
    import worker

    def reports():
        from benchmarks import bench_e1_architecture as e1, bench_e2_reconfig_latency as e2
        from benchmarks import bench_e3_replacement_policy as e3, bench_e4_compression as e4
        from benchmarks import bench_e5_offload_speedup as e5, bench_e6_agility as e6
        from benchmarks import bench_e7_rom_layout as e7, bench_e8_frame_granularity as e8
        from benchmarks import bench_e9_fleet_dispatch as e9, bench_e10_reliability as e10
        from benchmarks import bench_e11_rebalance as e11, bench_e12_frontdoor as e12
        from repro.core.config import CoprocessorConfig
        from repro.functions.bank import build_default_bank

        bank, config = build_default_bank(), CoprocessorConfig(seed=2005)
        built = [
            e1.build_report(e1.build_traced_driver(config, bank), bank),
            e2.build_report(config, bank),
            e4.build_report(e4.raw_bitstreams(config, bank)),
            e7.build_report(config, bank),
            *(module.build_report(bank) for module in (e3, e5, e6, e8, e9, e10, e11, e12)),
        ]
        for report in built:
            report.render()

    def fingerprints():
        from benchmarks import fingerprints as tool

        assert tool.main(["--check", "--tiny"]) == 0

    def ledger():
        for shape in shapes.SHAPES:
            spec = {"workload": shape.name, "seed": 11, "ops": shape.min_ops, "seconds": 0.016, "mode": "traced"}
            assert not worker.measure(spec)["violations"], shape.name

    def shard():
        from repro.cluster.sharded import _shard_worker, partition_cards

        shape = shapes.FleetSharded2()
        config = dataclasses.replace(shape.make_trace(shape.build_bank(), 11, shape.min_ops), epoch_ns=SHARD_EPOCH_NS)
        receiving, sending = multiprocessing.Pipe(duplex=False)
        messages = [("lines", None)]

        def drain():
            try:
                while messages[-1][0] == "lines":
                    messages.append(receiving.recv())
            except EOFError:  # the worker ended without its final message
                pass

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            _shard_worker(sending, config, partition_cards(config.total_cards, 2)[0])
        finally:
            sending.close()
        reader.join(60)
        assert not reader.is_alive() and messages[-1][0] == "final", messages[-1]

    return shard, reports, fingerprints, ledger


def check_runs() -> int:
    """Trace every shipped user once under the :class:`CacheCensus` and the
    :class:`OptionCensus`; 0 if the functions that never ran are exactly the
    functions ``KEPT`` and ``KEPT_RUNS`` name, the :func:`line_residue` of
    ``src/repro`` is at most ``LINE_RESIDUE_BUDGET`` statements, every cache
    has a hit and the options with fewer than two values are exactly those
    ``KEPT_VALUES`` names, else print the difference and return 1.  Prints
    each function's residue, each cache's row and each such option's row
    either way."""
    functions = index()[0].functions
    kept = (KEPT.keys() | KEPT_RUNS.keys()) & functions.keys()
    checked = {
        file: list(checked_statements(file.relative_to(SRC).as_posix(), parse(file)[0], kept))
        for file in sorted(SRC.rglob("*.py"))
    }
    census, options = CacheCensus(), OptionCensus(index()[0])
    try:
        ran, lines = traced_runs(*census.counted(shipped_users()), checked=checked, census=options)
    finally:
        census.restore()
    missed = never_ran(functions, ran)
    residue = {}
    for file, statements in checked.items():
        residue.update(line_residue(statements, lines[file]))
    for key, statements in sorted(residue.items()):
        print(f"residue: {key}: " + ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in statements))
    print("".join(f"{line}\n" for line in census.lines() + options.lines()), end="")
    print("".join(f"never ran: {key}\n" for key in sorted(missed - kept)), end="")
    print("".join(f"ran, but kept: {key}\n" for key in sorted(kept - missed)), end="")
    unhit = sorted(key for key, users in census.rows.items() if not any(hits for hits, _ in users.values()))
    print("".join(f"no hit: {key}\n" for key in unhit), end="")
    lonely = options.lonely().keys()
    print("".join(f"one value, not kept: {key}\n" for key in sorted(lonely - KEPT_VALUES.keys())), end="")
    print("".join(f"two values, but kept: {key}\n" for key in sorted(KEPT_VALUES.keys() - lonely)), end="")
    total = sum(map(len, residue.values()))
    print(f"{len(functions)} functions; {len(missed)} never ran; {len(kept)} kept; "
          f"{total} residue statements in {len(residue)} functions (budget {LINE_RESIDUE_BUDGET}); "
          f"{len(census.rows)} caches, {len(unhit)} hit by no shipped user; "
          f"{len(options.options)} options, {len(lonely)} with fewer than two values, {len(KEPT_VALUES)} kept")
    return int(missed != kept or total > LINE_RESIDUE_BUDGET or bool(unhit) or lonely != KEPT_VALUES.keys())


if __name__ == "__main__":
    if sys.argv[1:2] == ["--runs"]:
        sys.exit(check_runs())
    elif sys.argv[1:2] == ["--scan"]:
        print_scan(sys.argv[2:])
    else:
        for argument in sys.argv[1:]:
            print(f"{tree_code_lines(argument):7d}  {argument}")
