"""The owner-resolving index behind the reachability scans in
``test_option_budget.py``, fed a small inline module, and its ``--scan``
printer run as a command."""

import ast
import importlib.util
import os
import subprocess
import sys

import test_option_budget as scans

SOURCE = '''
class Geometry:
    def ping(self):
        return 0


class Port:
    def ping(self):
        return 1


class Card:
    def __init__(self, geometry: Geometry):
        self.port = Port()
        self.geometry = geometry

    @property
    def main_port(self) -> Port:
        return self.port

    def fabric(self) -> Geometry:
        return self.geometry

    def ping(self):
        return 2

    def run(self):
        self.ping()
        self.port.ping()
        self.main_port.ping()
        self.fabric().ping()


class Unused:
    def ping(self):
        return 3

    def pong(self):
        return 4


class Other:
    def pong(self):
        return 5


class Stats:
    def describe(self):
        return "stats"


class Fleet:
    def __init__(self):
        self.stats = Stats()

    def describe(self):
        return self.stats.describe()


def build_card() -> Card:
    return Card(Geometry())


def duck(thing):
    thing.fabric()
    return thing.ping()


def main(port: Port, things):
    card = Card(Geometry())
    card.run()
    made = build_card()
    geometry = made.geometry
    geometry.ping()
    port.ping()
    things[0].pong()
    duck(card)
    return Fleet()


main(Port(), [])
'''


def built_index(tmp_path):
    index = scans.Index([(tmp_path / "m.py", ast.parse(SOURCE))], root=tmp_path)
    return index, index.scan()


def test_each_receiver_form_resolves_to_its_class(tmp_path):
    index, _ = built_index(tmp_path)
    families = {
        ast.unparse(receiver): sorted(index._family_of(receiver, scope) or ["every class"])
        for name, receiver, scope, _, _ in index.uses
        if receiver is not None and name in ("ping", "pong", "run", "geometry", "fabric")
    }
    assert families == {
        "self": ["Card"],  # ``self`` in a class
        "self.port": ["Port"],  # ``self.attr`` bound by ``C(...)``
        "self.main_port": ["Port"],  # a property annotated ``-> C``
        "self.fabric()": ["Geometry"],  # a method annotated ``-> C``
        "card": ["Card"],  # a name bound by ``C(...)``
        "made": ["Card"],  # a function annotated ``-> C``
        "geometry": ["Geometry"],  # a local bound to an attribute that resolves
        "port": ["Port"],  # an annotation ``: C``
        "thing": ["Card"],  # the one class with both attributes ``thing`` is used with
        "things[0]": ["every class"],  # unresolvable: the name match
    }


def test_the_scan_reaches_by_owner_to_a_fixed_point(tmp_path):
    _, (unreached, unset, unread) = built_index(tmp_path)
    # Every typed ``.ping()`` resolved, so none reached ``Unused.ping``; the
    # untyped ``.pong()`` reached both.  ``Fleet.describe`` has no caller, so
    # neither its callee ``Stats.describe`` nor its read of ``stats`` counts.
    assert unreached == {"m.py:Unused", "m.py:Unused.ping", "m.py:Other", "m.py:Fleet.describe", "m.py:Stats.describe"}
    assert unread == {"m.py:Fleet.stats"}
    assert not any(unset.values())


def test_a_re_export_is_not_a_use(tmp_path):
    """A package ``__init__.py``'s ``from ... import`` lines and ``__all__``
    reach nothing; the same import in any other module does."""
    package = tmp_path / "pkg"
    trees = [
        (package / "impl.py", ast.parse("def exported():\n    return 1\n\n\ndef used():\n    return 2\n")),
        (package / "__init__.py", ast.parse(
            "from pkg.impl import exported, used\n\n__all__ = ['exported', 'used']\n"
        )),
        (package / "caller.py", ast.parse("from pkg.impl import used\n")),
    ]
    unreached = scans.Index(trees, root=tmp_path).scan()[0]
    assert unreached == {"pkg/impl.py:exported"}


def test_scan_prints_each_item_then_the_totals():
    result = subprocess.run(
        [sys.executable, "tests/test_option_budget.py", "--scan", "src/repro/faults"],
        cwd=scans.REPO,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(scans.REPO / "src"), os.environ.get("PYTHONPATH", "")])},
        capture_output=True,
        text=True,
        check=True,
    )
    built, (unreached, unset, unread) = scans.index()
    definitions = [key for key in built.definitions if key.startswith("faults/")]
    options = [f"{key}({name})" for key, (*_, names) in built.options.items() if key.startswith("faults/")
               for _, name in names]
    fields = [key for key in built.fields if key.startswith("faults/")]
    *items, totals = result.stdout.splitlines()
    assert items == definitions + options + fields
    assert totals == f"{len(definitions)} definitions (0 *); {len(options)} options (0 *); {len(fields)} fields (0 *)"


def test_a_config_field_is_set_by_keyword_or_by_a_splatted_dict_key(tmp_path):
    """``CoprocessorConfig(...)``, ``with_overrides(...)`` and ``replace(...)``
    set a field by keyword, or by a key of a dict display or ``dict(...)``
    passed with ``**`` — built in the call or bound to the name it passes.
    Another call's keyword, and a dict never splatted into a setter, set nothing."""
    source = """
from dataclasses import replace

base = CoprocessorConfig(alpha=1)
small = base.with_overrides(beta=2)
other = replace(base, gamma=3)
knobs = dict(delta=4)
CoprocessorConfig(**knobs)
CoprocessorConfig(**{"epsilon": 5})
unused = {"eta": 7}
Unrelated(zeta=6)
"""
    trees = [(tmp_path / "m.py", ast.parse(source))]
    found = scans.spec_fields_set(trees, {"CoprocessorConfig": []})
    assert found["CoprocessorConfig"] | found[None] == {"alpha", "beta", "gamma", "delta", "epsilon"}


SPEC_SOURCE = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    latency_ns: int
    gbps: float = 10.0
    loss: float = 0.0
    queue_packets: int = 64


@dataclass(frozen=True)
class Transport:
    retries: int = 3
    timeout_ns: int = 100


@dataclass
class Counters:
    sent: int = 0


UPLINK = dict(loss=0.1)
TRANSPORT = dict(retries=5, timeout_ns=50)


def build():
    uplink = LinkSpec(20_000, 1.0, **UPLINK)
    transport = dict(TRANSPORT)
    return uplink, Transport(**transport), Counters()
'''


def spec_scan(tmp_path):
    trees = [(tmp_path / "m.py", ast.parse(SPEC_SOURCE))]
    index = scans.Index(trees, root=tmp_path)
    return index, scans.spec_options(index, trees)


def test_a_frozen_dataclass_field_nothing_sets_is_flagged(tmp_path):
    """``LinkSpec(20_000, 1.0, **UPLINK)`` sets its first two fields by
    position and ``loss`` through a bound dict; ``queue_packets`` is set by
    nothing."""
    index, unset = spec_scan(tmp_path)
    assert unset["m.py:LinkSpec"] == ["queue_packets"]
    assert index.options["m.py:LinkSpec"] == (
        "LinkSpec", None, [(None, "gbps"), (None, "loss"), (None, "queue_packets")]
    )


def test_a_field_set_through_a_copied_dict_is_not_flagged(tmp_path):
    """``transport = dict(TRANSPORT)`` copies the bound dict's keys, so
    ``Transport(**transport)`` sets both fields."""
    _, unset = spec_scan(tmp_path)
    assert unset["m.py:Transport"] == []


def test_a_non_frozen_counter_dataclass_is_not_an_option(tmp_path):
    index, unset = spec_scan(tmp_path)
    assert "m.py:Counters" not in unset and "m.py:Counters" not in index.options
    assert set(index.specs) == {"m.py:LinkSpec", "m.py:Transport"}


def test_two_dead_definitions_that_name_each_other_are_flagged(tmp_path):
    """Liveness grows from uses outside every definition: a class whose only
    user is another unreached class stays unreached, and so does that user."""
    source = """
class Population:
    def start(self):
        return Client(self)


class Client:
    def __init__(self, population: Population):
        self.population = population


class Used:
    def start(self):
        return 1


Used().start()
"""
    unreached = scans.Index([(tmp_path / "m.py", ast.parse(source))], root=tmp_path).scan()[0]
    assert unreached == {"m.py:Population", "m.py:Population.start", "m.py:Client"}


def test_a_name_in_its_own_modules_all_is_not_a_use(tmp_path):
    source = "__all__ = ['exported', 'used']\n\n\ndef exported():\n    return 1\n\n\ndef used():\n    return 2\n\n\nused()\n"
    unreached = scans.Index([(tmp_path / "m.py", ast.parse(source))], root=tmp_path).scan()[0]
    assert unreached == {"m.py:exported"}


RUNTIME_SOURCE = '''
import functools


class Codec:
    def compress(self, data):
        """Compress *data*."""
        raise NotImplementedError

    def name(self):
        ...


class Rle(Codec):
    def __init__(self):
        self.level = 1

    def compress(self, data):
        return data

    @property
    def ratio(self):
        return 1.0

    def never(self):
        return 0

    def __len__(self):
        return 0

    def __repr__(self):
        return "Rle()"


@functools.lru_cache(maxsize=None)
def build():
    return Rle()


def unused():
    return build().never()
'''


def test_the_runtime_leg_flags_what_never_ran_but_not_an_interface(tmp_path):
    """A function whose code object no call entered is flagged, a dunder
    too; a decorated one that ran is not (its code starts at the decorator),
    an interface body is exempt by its shape and a ``__repr__`` by its
    name."""
    path = (tmp_path / "runtime_module.py").resolve()
    path.write_text(RUNTIME_SOURCE)
    spec = importlib.util.spec_from_file_location("runtime_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def drive():
        codec = module.build()
        codec.compress(b"x")
        return codec.ratio

    index = scans.Index([(path, ast.parse(RUNTIME_SOURCE))], root=path.parent)
    ran, _ = scans.traced_runs(drive)
    assert set(index.functions) == {
        "runtime_module.py:" + name for name in (
            "Codec.compress", "Codec.name", "Rle.__init__", "Rle.compress", "Rle.ratio", "Rle.never",
            "Rle.__len__", "Rle.__repr__", "build", "unused",
        )
    }
    assert scans.never_ran(index.functions, ran) == {
        "runtime_module.py:" + name for name in ("Rle.never", "Rle.__len__", "unused")
    }


RESIDUE_SOURCE = '''
class Codec:
    def compress(self, data):
        """Compress *data*."""
        raise NotImplementedError

    def __repr__(self):
        return "Codec()"


class Rle(Codec):
    def compress(self, data):
        if not data:
            return b""
        if len(data) > 1_000:
            raise ValueError("too long")
        try:
            return bytes(data)
        except TypeError:
            data = b"?"
            return data

    def unused(self):
        return 0


def kept(data):
    if data:
        return 1
    return 0
'''


def test_the_line_leg_flags_a_dead_return_but_no_guard(tmp_path):
    """The dead ``return b""`` of a live function is residue, and so is the
    body of a method no call entered; a ``raise``, an ``except`` body, a
    ``__repr__``, an interface, a kept function's dead ``return`` and a
    docstring (it holds no instructions) are not."""
    path = (tmp_path / "residue_module.py").resolve()
    path.write_text(RESIDUE_SOURCE)
    spec = importlib.util.spec_from_file_location("residue_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    checked = list(scans.checked_statements("residue_module.py", RESIDUE_SOURCE, kept={"residue_module.py:kept"}))
    _, ran = scans.traced_runs(lambda: module.Rle().compress(b"ab"), lambda: module.kept(b""), checked={path: checked})
    residue = scans.line_residue(checked, ran[path])
    dead = RESIDUE_SOURCE.splitlines().index('            return b""') + 1
    unused = RESIDUE_SOURCE.splitlines().index("        return 0") + 1
    assert residue == {
        "residue_module.py:Rle.compress": [(dead, dead)],
        "residue_module.py:Rle.unused": [(unused, unused)],
    }


CENSUS_SOURCE = '''
from dataclasses import dataclass


class Clock:
    pass


class Card:
    def __init__(self, frames=4, clock=None, name="card"):
        self.frames, self.clock, self.name = frames, clock, name


@dataclass(frozen=True)
class LinkSpec:
    latency_ns: int = 20_000
    loss: float = 0.0


def build_card(frames=4):
    return Card(frames)
'''


def census_module(tmp_path, monkeypatch):
    """``(the imported CENSUS_SOURCE module, an OptionCensus of its options)``."""
    path = (tmp_path / "census_module.py").resolve()
    path.write_text(CENSUS_SOURCE)
    spec = importlib.util.spec_from_file_location("census_module", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "census_module", module)
    spec.loader.exec_module(module)
    trees = [(path, ast.parse(CENSUS_SOURCE))]
    index = scans.Index(trees, root=path.parent)
    scans.spec_options(index, trees)
    return module, scans.OptionCensus(index, root=path.parent)


def test_the_option_census_flags_an_option_passed_one_value(tmp_path, monkeypatch):
    """``frames`` takes two values, ``clock`` two distinct objects and a
    spec's ``loss`` two values: none is flagged.  ``name`` takes one value
    twice, a spec's ``latency_ns`` only its default and ``build_card``'s
    ``frames`` no call: each is flagged."""
    module, census = census_module(tmp_path, monkeypatch)

    def drive():
        module.Card(4, module.Clock(), "a")
        module.Card(frames=8, clock=module.Clock(), name="a")
        module.LinkSpec(loss=0.1)
        module.LinkSpec()

    scans.traced_runs(drive, census=census)
    assert census.lonely() == {
        "census_module.py:Card.__init__(name)": "a",
        "census_module.py:LinkSpec(latency_ns)": 20_000,
        "census_module.py:build_card(frames)": None,
    }
    assert census.lines() == [
        "option: census_module.py:Card.__init__(name): 'a'",
        "option: census_module.py:LinkSpec(latency_ns): 20000",
        "option: census_module.py:build_card(frames): no call",
    ]


def test_one_object_passed_twice_is_one_value(tmp_path, monkeypatch):
    module, census = census_module(tmp_path, monkeypatch)
    clock = module.Clock()
    scans.traced_runs(lambda: [module.Card(frames, clock) for frames in (4, 8)], census=census)
    assert "census_module.py:Card.__init__(clock)" in census.lonely()
    assert census.lines()[0] == "option: census_module.py:Card.__init__(clock): one Clock"
