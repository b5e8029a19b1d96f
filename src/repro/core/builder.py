"""Convenience builders wiring complete systems together."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import CoprocessorConfig
from repro.core.coprocessor import AgileCoprocessor
from repro.fpga.bitgen import BitstreamCache, bitstream_cache
from repro.functions.bank import FunctionBank, build_default_bank
from repro.core.host import HostDriver, build_host_system


def clear_bitstream_cache() -> BitstreamCache:
    """Drop the process-wide rendered/compressed bitstream memo.

    Only needed when benchmarking cold-path generation costs; results are
    unaffected either way because cache hits return byte-identical images.
    Returns the (now empty) cache so callers can inspect its stats.
    """
    cache = bitstream_cache()
    cache.clear()
    return cache


def build_coprocessor(
    config: Optional[CoprocessorConfig] = None,
    bank: Optional[FunctionBank] = None,
    functions: Optional[Sequence[str]] = None,
    download: bool = True,
) -> AgileCoprocessor:
    """Build a co-processor card.

    Parameters
    ----------
    config:
        Co-processor configuration (defaults to :class:`CoprocessorConfig`).
    bank:
        The function bank to install (defaults to the full bank).
    functions:
        Optional subset of bank function names to install instead of the whole
        bank (useful for focused experiments).
    download:
        When true (the default) the bank's bit-streams are generated,
        compressed and downloaded into the ROM immediately.
    """
    config = config if config is not None else CoprocessorConfig()
    bank = bank if bank is not None else build_default_bank()
    if functions is not None:
        bank = bank.subset(functions)
    coprocessor = AgileCoprocessor(config, bank)
    if download:
        coprocessor.download_bank()
    return coprocessor


def build_host_driver(
    config: Optional[CoprocessorConfig] = None,
    bank: Optional[FunctionBank] = None,
    functions: Optional[Sequence[str]] = None,
) -> HostDriver:
    """A co-processor mounted on the PCI model with a ready host driver."""
    coprocessor = build_coprocessor(config=config, bank=bank, functions=functions)
    return build_host_system(coprocessor)


def build_fleet(
    cards: int = 4,
    config: Optional[CoprocessorConfig] = None,
    bank: Optional[FunctionBank] = None,
    functions: Optional[Sequence[str]] = None,
    policy: str = "affinity",
    queue_depth: int = 8,
    simulator=None,
    fault_tolerance: bool = False,
    scrub_period_ns: Optional[int] = None,
    scrub_frames_per_order: int = 8,
    heal_on_failure: bool = True,
    fault_spec=None,
    rebalance_period_ns: Optional[int] = None,
    rebalance_min_queue_skew: int = 4,
    rebalance_min_frame_skew: int = 4,
    defrag_period_ns: Optional[int] = None,
    defrag_moves_per_order: Optional[int] = 1,
    stats_mode: str = "reservoir",
    card_indices: Optional[Sequence[int]] = None,
    admission_batch: int = 1,
    observability=None,
    slos=None,
):
    """Wire *cards* identical co-processor cards into a ready :class:`Fleet`.

    Each card gets its own PCI bus, host bridge and driver (and therefore its
    own card-local clock); all of them hang off one shared simulation kernel
    through the returned fleet.  Identically-configured cards share bit-stream
    generation work through the process-wide cache, so a fleet costs little
    more to build than a single card.

    ``policy`` is a dispatch policy name (``round_robin``,
    ``least_outstanding`` or ``affinity``).

    ``fault_tolerance`` installs the :mod:`repro.faults` stack on every card
    (golden images, hazard detection, healing), with ``scrub_period_ns``
    optionally starting the periodic readback-scrub services.  ``fault_spec``
    (a :class:`~repro.faults.spec.FaultSpec`) additionally installs a fault
    injector whose processes run alongside the fleet's own schedule.

    ``rebalance_period_ns`` starts the fleet's migration-planning service
    (see :meth:`~repro.cluster.fleet.Fleet.enable_rebalancing`):
    configuration residency moves from overloaded cards to idle ones through
    CAPTURE/RESTORE migrations.  ``defrag_period_ns`` installs per-card
    configuration-memory defragmenters and runs one bounded compaction order
    per period (:meth:`~repro.cluster.fleet.Fleet.enable_defrag`).

    ``observability`` accepts a :class:`repro.obs.Observability`: the fleet
    then records request/order spans on its tracer and registers its
    counters and gauges on its metrics registry.  ``None`` (the default)
    keeps the fully uninstrumented, digest-frozen schedule.

    Resident hits are replayed from a per-card
    :class:`~repro.cluster.fastpath.ServeMemo`, fault-protected cards
    included: a hit runs the full card model only when the card is not up
    (a wedged port degrades it), scrubs on execute, or holds a suspect
    (upset, not yet repaired) frame in the function's region.  Tracing
    is not a reason: with ``observability`` on, a replayed hit leaves the same
    ``card.*`` device spans the full model leaves.  The card decides per
    request — there is nothing to configure, and schedules, counters and
    spans are identical either way.

    ``slos`` accepts a sequence of :class:`repro.obs.SloSpec`: the specs are
    installed on *observability* (one is created when ``None``), turning on
    burn-rate alerting and the incident flight recorder.  SLO evaluation is
    passive — schedule digests stay byte-identical with or without it.
    """
    from repro.cluster.fleet import Fleet

    if cards <= 0:
        raise ValueError("a fleet needs at least one card")
    if slos:
        from repro.obs import Observability

        if observability is None:
            observability = Observability(slos=slos)
        else:
            observability.install_slos(slos)
    drivers = [
        build_host_driver(config=config, bank=bank, functions=functions)
        for _ in range(cards)
    ]
    fleet = Fleet(
        drivers,
        policy=policy,
        simulator=simulator,
        queue_depth=queue_depth,
        stats_mode=stats_mode,
        card_indices=card_indices,
        admission_batch=admission_batch,
        observability=observability,
    )
    if fault_tolerance or scrub_period_ns is not None:
        fleet.enable_fault_tolerance(
            scrub_period_ns=scrub_period_ns,
            scrub_frames_per_order=scrub_frames_per_order,
            heal_on_failure=heal_on_failure,
        )
    if rebalance_period_ns is not None:
        fleet.enable_rebalancing(
            rebalance_period_ns,
            min_queue_skew=rebalance_min_queue_skew,
            min_frame_skew=rebalance_min_frame_skew,
        )
    if defrag_period_ns is not None:
        fleet.enable_defrag(
            period_ns=defrag_period_ns, moves_per_order=defrag_moves_per_order
        )
    if fault_spec is not None:
        from repro.faults import FaultInjector

        fleet.install_faults(FaultInjector(fault_spec))
    return fleet


def build_frontdoor(
    fleet,
    seed: int = 0,
    gateways: int = 1,
    uplink=None,
    transport=None,
    admission=None,
    priorities=None,
    deadline_ns: Optional[int] = None,
    slos=None,
):
    """Put *fleet* behind a network front door (see :mod:`repro.net`).

    ``seed`` roots the net layer's own randomness (link loss/jitter draws,
    backoff jitter) in a :class:`~repro.sim.rand.SeededRandom` fork tree that
    is independent of the workload's, so toggling network features never
    perturbs trace generation.  ``uplink`` is the
    :class:`~repro.net.link.LinkSpec` of both directions,
    ``transport`` a :class:`~repro.net.transport.TransportConfig`,
    ``admission`` an :class:`~repro.net.gateway.AdmissionConfig` (``None``
    admits everything), ``priorities`` a tenant→priority map and
    ``deadline_ns`` the per-request deadline budget from first send.

    ``slos`` installs :class:`repro.obs.SloSpec` objectives (typically
    ``source="net"`` specs judging the client-visible stream) on the fleet's
    :class:`~repro.obs.Observability`, which must have been handed to
    :func:`build_fleet` — SLOs need the registry and record hooks that only
    an observed fleet has.
    """
    from repro.net import FrontDoor
    from repro.sim.rand import SeededRandom

    if slos:
        obs = fleet.obs
        if obs is None:
            raise ValueError(
                "build_frontdoor(slos=...) needs a fleet built with an Observability"
            )
        obs.install_slos(slos)
        fleet._bind_obs_watchers()
    return FrontDoor(
        fleet,
        SeededRandom(seed).fork("net"),
        gateways=gateways,
        uplink=uplink,
        transport=transport,
        admission=admission,
        priorities=priorities,
        deadline_ns=deadline_ns,
    )
