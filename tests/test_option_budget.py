"""Ratchets: options, ``src/repro`` and its ``fleet.py``, ``sim/``, ``stats.py`` and
``net/`` may only shrink, no definition there is reached only by the tests, no
option there is set only by the tests, and no field there is only written.

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
  So is a field of ``CoprocessorConfig`` that no ``CoprocessorConfig(...)``,
  ``with_overrides(...)`` or ``replace(...)`` sets by keyword or by a key of
  a dict passed with ``**`` (:func:`config_fields_set`).
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
or set — reaches anything of its name (``getattr`` dispatch).  A use inside a
definition that is itself unreached does not count, to a fixed point, nor
does a definition's use of itself.  ``C(...)`` sets ``C.__init__``'s options,
``super().__init__`` each base's.

``python tests/test_option_budget.py PATH...`` prints :func:`code_lines` for
files and directories — the counter a PR's before/after table should quote —
and ``--scan PATH...`` prints the definitions, options and fields under
``src/repro`` paths, ``*`` marking each one nothing outside ``tests/``
reaches, sets or reads, then the three totals.
"""

import ast
import collections
import dataclasses
import functools
import inspect
import io
import pathlib
import re
import sys
import tokenize

from repro.cluster.fleet import Fleet
from repro.cluster.sharded import ShardedRunConfig, run_sharded
from repro.core.builder import build_fleet, build_frontdoor
from repro.core.config import CoprocessorConfig
from repro.sim.kernel import Simulator

OPTION_BUDGET = 47
FLEET_CODE_LINE_BUDGET = 635
SIM_CODE_LINE_BUDGET = 318
STATS_CODE_LINE_BUDGET = 419
NET_CODE_LINE_BUDGET = 808
SRC_CODE_LINE_BUDGET = 10_607

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Definitions no code outside ``tests/`` calls, kept because a user calls them.
KEPT = {
    "check/trace.py:ScheduleTrace.from_seed": "replays a saved schedule from its seed string",
    "check/trace.py:ScheduleTrace.to_json": "saves a schedule for replay",
    "check/trace.py:ScheduleTrace.from_json": "loads a saved schedule for replay",
    "core/builder.py:clear_bitstream_cache": "lets a benchmark time cold bit-stream generation",
    "bitstream/codecs/base.py:available_codecs": "lists the names CoprocessorConfig.codec_name accepts",
    "workloads/generators.py:uniform_trace": "the uniform-popularity trace, the baseline for a skewed mix",
    "workloads/generators.py:bursty_trace": "the geometric-burst trace of the generator family",
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
        #: definition's is ``(called as, class, [(position, option)])``.  ``uses``
        #: holds ``(name, receiver, scope, chain, kind)``, ``calls`` ``(called
        #: names, receiver, scope, chain, positional arguments, keywords, starred)``
        self.definitions, self.fields, self.options = {}, {}, {}
        for file, tree in trees:
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
            scope.bindings[node.name].append(("class", node.name, None))
            if isinstance(node, ast.ClassDef):
                self.bases.setdefault(node.name, set()).update(map(_name, node.bases))
                for base in map(_name, node.bases):
                    self.subclasses[base].add(node.name)
                dataclass = key and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
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
            if "__slots__" in targets or "__all__" in targets and self._reexports:
                return
            self._named.update(map(id, getattr(node.value, "elts", ())))
            for target in node.targets:
                self._bind(scope, target, ("value", node.value, scope))
        elif isinstance(node, ast.AnnAssign):
            self._bind(scope, node.target, ("class", node.annotation, None))
            if scope.dataclass and "ClassVar" not in ast.unparse(node.annotation):
                self.fields[f"{self._path}:{scope.owner}.{node.target.id}"] = (node.target.id, scope.owner)
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
        unreached, found = None, set()
        while found != unreached:
            unreached = found
            live = {k for chain, keys in reaches if unreached.isdisjoint(chain) for k in keys if k not in chain}
            found = (self.definitions.keys() | self.fields.keys()) - live
        unset = {}
        for key, (*_, options) in self.options.items():
            calls = [call for chain, *call in sets[key] if unreached.isdisjoint(chain)]
            unset[key] = [name for position, name in options if not any(
                star or name in words or position is not None and position < n for n, words, star in calls)]
        return unreached & self.definitions.keys(), unset, unreached & self.fields.keys()


#: The calls that set a ``CoprocessorConfig`` field: the constructor and the
#: two copy-with-changes helpers.
_CONFIG_SETTERS = {"CoprocessorConfig", "with_overrides", "replace"}
_CONFIG_KEY = "core/config.py:CoprocessorConfig"


def _dict_keys(node):
    """The keys a dict display or ``dict(...)`` call *node* builds, else None."""
    if isinstance(node, ast.Dict):
        return {key.value for key in node.keys if isinstance(key, ast.Constant)}
    if isinstance(node, ast.Call) and _name(node.func) == "dict":
        return {keyword.arg for keyword in node.keywords if keyword.arg}
    return None


def config_fields_set(trees) -> set:
    """The names a :data:`_CONFIG_SETTERS` call in *trees* sets: its keywords,
    and the keys of a dict it takes with ``**`` — built in the call or bound
    to the name it passes anywhere in the same module."""
    found = set()
    for _, tree in trees:
        bound = collections.defaultdict(set)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and (keys := _dict_keys(node.value)) is not None:
                for target in node.targets:
                    bound[_name(target)] |= keys
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in _CONFIG_SETTERS:
                for keyword in node.keywords:
                    found |= {keyword.arg} if keyword.arg else _dict_keys(keyword.value) or bound[_name(keyword.value)]
    return found


@functools.lru_cache(maxsize=None)
def index():
    """The :class:`Index` of ``src/`` and ``benchmarks/`` (never ``examples/``
    or ``tests/``), and its scan, whose options include ``CoprocessorConfig``'s
    fields."""
    files = [file for part in ("src", "benchmarks") for file in sorted((REPO / part).rglob("*.py"))]
    trees = [(file, parse(file)[1]) for file in files]
    built = Index(trees)
    unreached, unset, unread = built.scan()
    fields = [field.name for field in dataclasses.fields(CoprocessorConfig)]
    built.options[_CONFIG_KEY] = ("CoprocessorConfig", None, [(None, name) for name in fields])
    configured = config_fields_set(trees)
    unset[_CONFIG_KEY] = [name for name in fields if name not in configured]
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


if __name__ == "__main__":
    if sys.argv[1:2] == ["--scan"]:
        print_scan(sys.argv[2:])
    else:
        for argument in sys.argv[1:]:
            print(f"{tree_code_lines(argument):7d}  {argument}")
