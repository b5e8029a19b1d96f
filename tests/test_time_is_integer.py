"""Time is whole nanoseconds: no float leaks in, no float is declared.

First half — one small scenario per layer, then ``type(...) is int`` on every
time the run left behind: the kernel clock, every card clock, every digest-tap
key, every span timestamp, and the time totals of ``FleetStatistics``,
``CoprocessorStatistics``, ``PciBus`` and the configuration port.
The scenarios hand the specs what the frozen e2e shapes hand them: integral
floats for periods and budgets, a fractional kill time, fractional link
numbers — each is converted or rounded once (``repro.sim.clock``).

Second half — an AST scan of ``src/repro``: no float literal and no ``float``
annotation may be bound to a name ending ``_ns``, and no function whose
``return`` hands back ``elapsed`` or a ``*_ns`` name (alone or in a tuple) may
be annotated to return a ``float``.  The allow-list is the handful of names
that are means or ratios, not times.
"""

import ast
import dataclasses
import pathlib

import repro
from repro.cluster.sharded import ShardedRunConfig, run_sharded
from repro.core.builder import build_coprocessor, build_fleet, build_frontdoor
from repro.core.config import SMALL_CONFIG
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.net import AdmissionConfig, LinkSpec, OpenLoopPopulation, TransportConfig
from repro.obs import Observability
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace


def time_totals(stats):
    """Every set ``*_ns`` attribute of *stats*, containers flattened."""
    times = {}
    for name, value in vars(stats).items():
        if not name.endswith("_ns") or value is None:
            continue
        if isinstance(value, dict):
            times.update({f"{name}[{key}]": item for key, item in value.items()})
        elif isinstance(value, list):
            times.update({f"{name}[{index}]": item for index, item in enumerate(value)})
        else:
            times[name] = value
    return times


def assert_whole_ns(fleet, observability=None, tapped=()):
    times = {"kernel clock": fleet.clock.now, "makespan": fleet.stats.makespan_ns}
    times.update({f"fleet stats {k}": v for k, v in time_totals(fleet.stats).items()})
    for card in fleet.cards:
        driver = card.driver
        copro = driver.coprocessor
        port = copro.device.port.stats
        times.update(
            {
                f"{card.name} clock": driver.clock.now,
                f"{card.name} busy_ns": card.busy_ns,
                f"{card.name} bus.busy_time_ns": driver.bus.busy_time_ns,
                f"{card.name} port.busy_time_ns": port.busy_time_ns,
            }
        )
        if card.down_since_ns is not None:
            times[f"{card.name} down_since_ns"] = card.down_since_ns
        times.update(
            {f"{card.name} copro {k}": v for k, v in time_totals(copro.stats).items()}
        )
        for entry in copro.minios.table:
            times[f"{card.name} {entry.name} last_access_ns"] = entry.last_access_ns
            times[f"{card.name} {entry.name} loaded_at_ns"] = entry.loaded_at_ns
    for index, (at_ns, started_ns, _) in enumerate(tapped):
        times[f"digest tap {index} at_ns"] = at_ns
        times[f"digest tap {index} started_ns"] = started_ns
    if observability is not None:
        assert observability.spans
        for span in observability.spans:
            times[f"span {span.span_id} {span.name} start"] = span.start_ns
            times[f"span {span.span_id} {span.name} end"] = span.end_ns
    leaked = {what: value for what, value in times.items() if type(value) is not int}
    assert not leaked, leaked


def small_trace(bank, length=150, seed=3):
    specs = default_tenant_mix(bank, tenants=3, skew=1.2)
    return specs, multi_tenant_trace(bank, specs, length=length, mean_interarrival_ns=30_000.0, seed=seed)


class TestNoFloatLeaks:
    def test_fleet_hits_and_misses(self, small_bank):
        observability = Observability()
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=3),
            bank=small_bank,
            observability=observability,
        )
        fleet.stats.digest_tap = []
        _, trace = small_trace(small_bank)
        stats = fleet.run(trace)
        assert stats.hits and stats.misses
        assert sum(card.memo.replays for card in fleet.cards) > 0
        assert_whole_ns(fleet, observability, fleet.stats.digest_tap)

    def test_front_door_with_loss_jitter_retry_and_backoff(self, small_bank):
        observability = Observability()
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=5),
            bank=small_bank,
            observability=observability,
        )
        fleet.stats.digest_tap = []
        specs, trace = small_trace(small_bank, length=300, seed=5)
        door = build_frontdoor(
            fleet,
            seed=5,
            gateways=2,
            uplink=LinkSpec(latency_ns=20_000.5, loss=0.05, jitter_ns=4_000.25),
            transport=TransportConfig(per_hop_timeout_ns=400_000.5),
            admission=AdmissionConfig(rate_per_s=14_000.0, burst=8.0),
            priorities={specs[0].name: 1},
            deadline_ns=30_000_000.0,
        )
        door.add_population(OpenLoopPopulation(trace))
        door.run()
        stats = fleet.stats
        assert stats.net_retries and stats.net_timeouts and stats.shed_total
        assert type(stats.total_net_latency_ns) is int
        assert_whole_ns(fleet, observability, stats.digest_tap)

    def test_poisson_upsets_and_a_card_kill(self, small_bank):
        _, trace = small_trace(small_bank, length=400)
        fleet = build_fleet(
            cards=3,
            config=SMALL_CONFIG.with_overrides(seed=3),
            bank=small_bank,
            fault_tolerance=True,
            scrub_period_ns=60_000.0,
            defrag_period_ns=200_000.0,
            rebalance_period_ns=40_000.0,
        )
        injector = FaultInjector(
            FaultSpec(
                upset_rate_per_s=30_000.0,
                card_kill_times_ns=((trace.duration_ns * 0.45, 0),),
            )
        )
        fleet.install_faults(injector)
        fleet.run(trace)
        assert injector.upsets and fleet.stats.card_failures == 1
        assert type(fleet.rebalancer.cooldown_ns) is int
        assert_whole_ns(fleet)

    def test_a_migration(self, small_bank, order_drill):
        fleet = build_fleet(
            cards=2, config=SMALL_CONFIG.with_overrides(seed=3), bank=small_bank
        )
        fleet.cards[0].driver.preload("crc32")
        fleet.clock.advance(500.0)
        fleet.order_migration("crc32", 0, 1)
        assert order_drill(fleet) == []
        assert fleet.stats.migrations_completed == 1
        assert type(fleet.stats.mean_migration_latency_ns) is float  # a mean, not a time
        assert_whole_ns(fleet)

    def test_an_overlapped_miss(self, small_bank):
        # E2's overlap column: the pipelined configuration module takes
        # rom + max(decompress, port) + one window of fill, on the clock.
        copro = build_coprocessor(
            config=SMALL_CONFIG.with_overrides(overlap_decompress=True), bank=small_bank
        )
        outcome = copro.preload("crc32")
        report = outcome.reconfiguration
        assert report.total_time_ns == outcome.reconfig_time_ns < (
            report.rom_time_ns + report.decompress_time_ns + report.port_time_ns
        )
        times = {
            field.name: getattr(report, field.name)
            for field in dataclasses.fields(report)
            if field.name.endswith("_ns")
        }
        assert len(times) == 4
        assert {what: value for what, value in times.items() if type(value) is not int} == {}

    def test_a_two_shard_run(self):
        config = ShardedRunConfig(
            total_cards=4, requests=600, mean_interarrival_ns=40_000.0, epoch_ns=10_000_000.0
        )
        result = run_sharded(config, shards=2)
        assert result.epochs > 1
        times = time_totals(result.stats)
        times["last completion"] = result.stats.last_completion_ns
        assert {what: value for what, value in times.items() if type(value) is not int} == {}


# ------------------------------------------------------------------ the scan
#: Names ending ``_ns`` that are *not* times: means and ratios.
NOT_A_TIME = {
    "mttr_ns",  # a mean (time to repair)
    "think_ns",  # the mean of the exponential think time
    "period_ns",  # ClockDomain: nanoseconds per cycle
    "bandwidth_bytes_per_ns",  # a rate
}


def not_a_time(name: str) -> bool:
    return name.startswith("mean_") or name in NOT_A_TIME


def _bound_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _says_float(annotation) -> bool:
    return annotation is not None and any(
        isinstance(node, ast.Name) and node.id == "float" for node in ast.walk(annotation)
    )


def _float_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _returns_a_time(function) -> bool:
    """Does a ``return`` of *function* itself (not of a nested function) hand
    back ``elapsed`` or a ``*_ns`` name, alone or as a tuple element?"""
    nodes = list(ast.iter_child_nodes(function))
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Return) and node.value is not None:
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            names = [_bound_name(value) or "" for value in values]
            if any(name == "elapsed" or name.endswith("_ns") and not not_a_time(name) for name in names):
                return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return False


def float_time_bindings(source: str):
    """``(line, name, what)`` for every float literal or ``float`` annotation
    bound to a name ending ``_ns`` in *source*, and every function annotated
    to return a ``float`` that returns a time."""
    found = []

    def flag(name, node, what):
        if name and (what == "returned time" or name.endswith("_ns") and not not_a_time(name)):
            found.append((node.lineno, name, what))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AnnAssign):
            if _says_float(node.annotation):
                flag(_bound_name(node.target), node, "annotation")
            if node.value is not None and _float_literal(node.value):
                flag(_bound_name(node.target), node, "literal")
        elif isinstance(node, ast.Assign) and _float_literal(node.value):
            for target in node.targets:
                flag(_bound_name(target), node, "literal")
        elif isinstance(node, ast.AugAssign) and _float_literal(node.value):
            flag(_bound_name(node.target), node, "literal")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _says_float(node.returns):
                flag(node.name, node, "return annotation")
                if _returns_a_time(node):
                    flag(node.name, node, "returned time")
            arguments = node.args
            positional = arguments.posonlyargs + arguments.args
            defaults = [None] * (len(positional) - len(arguments.defaults)) + arguments.defaults
            pairs = list(zip(positional, defaults))
            pairs += list(zip(arguments.kwonlyargs, arguments.kw_defaults))
            for argument, default in pairs:
                if _says_float(argument.annotation):
                    flag(argument.arg, argument, "annotation")
                if default is not None and _float_literal(default):
                    flag(argument.arg, argument, "default")
        elif isinstance(node, ast.keyword) and node.arg and _float_literal(node.value):
            flag(node.arg, node.value, "keyword")
    return found


class TestNoFloatIsDeclared:
    def test_the_scan_sees_every_binding_form(self):
        source = (
            "class C:\n"
            "    latency_ns: float = 0.0\n"
            "    def total_ns(self, now_ns: Optional[float] = None, *, gap_ns=1e3) -> float:\n"
            "        self.busy_ns = 0.0\n"
            "        self.busy_ns += -2.5\n"
            "        return f(delay_ns=3.0)\n"
            "mean_latency_ns: float = 0.0\n"
            "count = 0.0\n"
            "wait_ns = 5\n"
            "def write(data) -> float:\n"
            "    elapsed = cost(data)\n"
            "    return elapsed\n"
            "def end() -> Tuple[list, float]:\n"
            "    def inner() -> float:\n"
            "        return 1.5\n"
            "    return [], spent_ns\n"
            "def ratio() -> float:\n"
            "    return hits / total\n"
        )
        assert sorted(float_time_bindings(source)) == [
            (2, "latency_ns", "annotation"),
            (2, "latency_ns", "literal"),
            (3, "gap_ns", "default"),
            (3, "now_ns", "annotation"),
            (3, "total_ns", "return annotation"),
            (4, "busy_ns", "literal"),
            (5, "busy_ns", "literal"),
            (6, "delay_ns", "keyword"),
            (10, "write", "returned time"),
            (13, "end", "returned time"),
        ]

    def test_no_float_is_bound_to_a_time_in_src(self):
        root = pathlib.Path(repro.__file__).parent
        found = [
            f"{path.relative_to(root)}:{line}: {name} ({what})"
            for path in sorted(root.rglob("*.py"))
            for line, name, what in float_time_bindings(path.read_text())
        ]
        assert not found, "\n".join(found)
