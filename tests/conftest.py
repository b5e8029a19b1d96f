"""Shared fixtures for the test suite.

Most tests use deliberately small fabrics, banks and memories so the suite
stays fast; a handful of integration tests build the full default system.

The fleet-shaped fixtures (``small_trace`` / ``small_fleet`` /
``protected_fleet`` / ``control_plane_fleet`` / ``host_driver_factory``) are
*factories*: they return a builder function so one test can produce several
fleets or traces with different knobs while every suite shares a single
definition of "a tiny deterministic fleet" (previously copy-pasted across the
cluster, fault and multi-card PCI suites).

Hypothesis runs under registered profiles: both are derandomized (a property
failure must reproduce on the next run and on every CI machine), CI trades
example count for wall-clock, and ``HYPOTHESIS_PROFILE`` overrides the
auto-selection when needed.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck
from hypothesis import settings as hypothesis_settings

from repro.check.invariants import check_invariants
from repro.core.builder import build_coprocessor, build_fleet, build_host_driver
from repro.core.config import CoprocessorConfig, SMALL_CONFIG
from repro.faults import FaultSpec
from repro.fpga.config_port import ConfigurationPort
from repro.fpga.errors import ConfigurationError
from repro.fpga.geometry import FabricGeometry
from repro.functions.bank import FunctionBank, build_default_bank, build_small_bank
from repro.sim.clock import Clock
from repro.sim.kernel import Timeout
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace

# --------------------------------------------------------------- hypothesis
hypothesis_settings.register_profile(
    "ci",
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.register_profile(
    "dev",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev")
)


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def tiny_geometry() -> FabricGeometry:
    """4x16 CLBs, 16 frames of 4 CLBs — big enough for the netlist functions."""
    return FabricGeometry(columns=4, rows=16, clb_rows_per_frame=4)


@pytest.fixture
def small_geometry() -> FabricGeometry:
    """8x32 CLBs, 64 frames — matches SMALL_CONFIG."""
    return FabricGeometry(columns=8, rows=32, clb_rows_per_frame=4)


@pytest.fixture
def small_config() -> CoprocessorConfig:
    return SMALL_CONFIG.with_overrides(seed=7)


@pytest.fixture(scope="session")
def small_bank() -> FunctionBank:
    """The 4-function test bank (session-scoped: its memos are shareable)."""
    return build_small_bank()


@pytest.fixture(scope="session")
def default_bank() -> FunctionBank:
    """The full 14-function bank (session-scoped: building AES etc. is not free)."""
    return build_default_bank()


@pytest.fixture
def small_coprocessor(small_config, small_bank):
    """A small, fully downloaded co-processor (fast to build)."""
    return build_coprocessor(config=small_config, bank=small_bank)


# ------------------------------------------------------------ fleet factories
#: Six functions (~63 frames) on a 32-frame fabric: no single card can hold
#: the fleet's working set, so dispatch decisions change hit rates.
FLEET_WORKING_SET = ["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"]


@pytest.fixture(scope="session")
def fleet_working_set():
    return list(FLEET_WORKING_SET)


@pytest.fixture(scope="session")
def pressure_config() -> CoprocessorConfig:
    """The fleet-pressure card: 32 big frames against a ~63-frame working set."""
    return CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=2005
    )


@pytest.fixture
def small_trace():
    """Factory: a small deterministic multi-tenant open-arrival trace."""

    def make(bank, length=60, seed=3, mean_interarrival_ns=30_000.0, tenants=2, skew=1.2):
        specs = default_tenant_mix(bank, tenants=tenants, skew=skew)
        return multi_tenant_trace(
            bank, specs, length=length, mean_interarrival_ns=mean_interarrival_ns, seed=seed
        )

    return make


@pytest.fixture
def small_fleet():
    """Factory: a tiny fleet of identically configured SMALL_CONFIG cards."""

    def make(bank, policy="affinity", cards=2, queue_depth=8, seed=3, **kwargs):
        return build_fleet(
            cards=cards,
            config=SMALL_CONFIG.with_overrides(seed=seed),
            bank=bank,
            policy=policy,
            queue_depth=queue_depth,
            **kwargs,
        )

    return make


@pytest.fixture
def protected_fleet():
    """Factory: a tiny fleet with the fault-tolerance stack installed."""

    def make(bank, cards=3, seed=3, **kwargs):
        return build_fleet(
            cards=cards,
            config=SMALL_CONFIG.with_overrides(seed=seed),
            bank=bank,
            policy="affinity",
            queue_depth=8,
            fault_tolerance=True,
            **kwargs,
        )

    return make


@pytest.fixture
def control_plane_fleet():
    """Factory: ``fleet_control_plane`` in small — four SMALL_CONFIG cards
    under Poisson upsets and 32-frame scrub orders, card 0 killed at 45 % of
    the trace, rebalancing and defrag, every function preloaded on card 0.
    Returns ``(fleet, trace)``."""

    def make(bank, seed, length=600):
        trace = multi_tenant_trace(
            bank, default_tenant_mix(bank, tenants=2, skew=1.2), length=length,
            mean_interarrival_ns=40_000.0, seed=seed,
        )
        fleet = build_fleet(
            cards=4,
            config=SMALL_CONFIG.with_overrides(seed=seed),
            bank=bank,
            policy="affinity",
            queue_depth=64,
            fault_tolerance=True,
            scrub_period_ns=60_000,
            scrub_frames_per_order=32,
            fault_spec=FaultSpec(
                process="poisson",
                upset_rate_per_s=20_000.0,
                card_kill_times_ns=((trace.duration_ns * 0.45, 0),),
                seed=seed,
            ),
            rebalance_period_ns=40_000,
            rebalance_min_queue_skew=2,
            defrag_period_ns=200_000,
        )
        for name in bank.names():
            fleet.cards[0].driver.preload(name)
        return fleet, trace

    return make


@pytest.fixture
def refuse_configuration(monkeypatch):
    """``refuse_configuration(*targets)``: from then on, every configuration
    transfer on each target — an :class:`~repro.fpga.device.FPGADevice` or a
    fleet card — raises :class:`ConfigurationError` before it writes or
    charges anything.

    The model's own transfer failures (a CRC mismatch, a collision) need a
    corrupted bit-stream or a broken placement; this is how a test makes a
    card refuse every load, restore, heal and relocation instead.
    """
    refusing = set()
    transfer = ConfigurationPort.transfer

    def refused(port, owner, *args):
        if port in refusing:
            raise ConfigurationError(f"configuration port refuses {owner!r}")
        return transfer(port, owner, *args)

    # Every transfer, a load's or a relocation's, goes through ``transfer``.
    monkeypatch.setattr(ConfigurationPort, "transfer", refused)

    def refuse(*targets):
        for target in targets:
            driver = getattr(target, "driver", None)
            refusing.add((driver.coprocessor.device if driver else target).port)

    return refuse


@pytest.fixture
def order_drill():
    """Run control-plane orders on an otherwise idle fleet.

    ``order_drill(fleet, (card_index, order), ...)`` queues each order the
    way the services do and runs the kernel dry.  ``when=(condition, action)``
    polls *condition* every 100 ns of fleet time and fires *action* once it
    holds — how a test kills a peer at a chosen point of an order's life.
    Returns the invariant pack's violations.
    """

    def run(fleet, *orders, when=None):
        for index, order in orders:
            fleet._enqueue(fleet.cards[index], order)
        if when is not None:
            condition, action = when

            def watch():
                for _ in range(10_000):
                    if condition():
                        return action()
                    yield Timeout(100.0)
                raise AssertionError("the drill's condition never held")

            fleet.simulator.spawn(watch(), name="drill-watch")
        fleet.simulator.run()
        return check_invariants(fleet, trace_length=0)

    return run


@pytest.fixture
def host_driver_factory():
    """Factory: one SMALL_CONFIG card on its own PCI bus behind a driver."""

    def make(bank, config=None):
        return build_host_driver(
            config=config if config is not None else SMALL_CONFIG, bank=bank
        )

    return make
