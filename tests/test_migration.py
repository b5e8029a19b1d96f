"""Live migration & defragmentation: capture/restore, relocation, rebalancing.

Unit coverage for the PR 5 stack, layer by layer: the relocatable-region
helpers, the device-level capture/relocate primitives, the CAPTURE / RESTORE /
DEFRAG PCI commands end to end through the host driver, the defragmenter
service, and the fleet rebalancer's planning and order execution.
"""

import pytest

from oracles.migration import RelocationError, migrate, rebase_region
from repro.cluster import ScrubOrder
from repro.core.builder import build_coprocessor, build_fleet
from repro.core.config import SMALL_CONFIG
from repro.core.exceptions import CoprocessorError
from repro.core.host import build_host_system
from repro.fpga.errors import ConfigurationError, ExecutionError, FrameCollisionError
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import TEST_GEOMETRY, FabricGeometry
from repro.mcu.commands import STATUS_NOT_RESIDENT, CommandKind
from repro.workloads.multitenant import default_tenant_mix, multi_tenant_trace


def protected_driver(seed=11, defrag=True, bank=None):
    from repro.functions.bank import build_small_bank

    coprocessor = build_coprocessor(
        config=SMALL_CONFIG.with_overrides(seed=seed),
        bank=bank if bank is not None else build_small_bank(),
    )
    coprocessor.enable_fault_protection()
    if defrag:
        coprocessor.enable_defrag()
    return build_host_system(coprocessor)


class TestRebaseRegion:
    def test_preserves_shape_and_order(self):
        region = FrameRegion.from_addresses(
            [TEST_GEOMETRY.all_frames()[i] for i in (7, 5, 10)]
        )
        rebased = rebase_region(TEST_GEOMETRY, region, TEST_GEOMETRY, 20)
        indices = [TEST_GEOMETRY.all_frames().index(a) for a in rebased]
        # Lowest frame lands at 20; relative offsets (2, 0, 5) and the slot
        # order are both preserved.
        assert indices == [22, 20, 25]

    def test_rejects_out_of_range_targets(self):
        region = FrameRegion.from_addresses([TEST_GEOMETRY.all_frames()[0]])
        with pytest.raises(RelocationError):
            rebase_region(TEST_GEOMETRY, region, TEST_GEOMETRY, TEST_GEOMETRY.frame_count)

    def test_rejects_incompatible_fabrics(self):
        other = FabricGeometry(columns=8, rows=32, clb_rows_per_frame=8)
        assert other.frame_config_bytes != TEST_GEOMETRY.frame_config_bytes
        region = FrameRegion.from_addresses([TEST_GEOMETRY.all_frames()[0]])
        with pytest.raises(RelocationError):
            rebase_region(TEST_GEOMETRY, region, other, 0)

    def test_bigger_fabric_hosts_smaller_fabrics_frames(self):
        bigger = FabricGeometry(columns=16, rows=32, clb_rows_per_frame=4)
        assert bigger.frame_config_bytes == TEST_GEOMETRY.frame_config_bytes
        region = FrameRegion.from_addresses(
            [TEST_GEOMETRY.all_frames()[i] for i in (0, 1)]
        )
        rebased = rebase_region(TEST_GEOMETRY, region, bigger, 100)
        assert [bigger.all_frames().index(a) for a in rebased] == [100, 101]


class TestDeviceCaptureRelocate:
    def test_capture_is_slot_indexed_and_timed(self):
        driver = protected_driver()
        driver.preload("crc32")
        device = driver.coprocessor.device
        before_ns = device.clock.now
        bitstream = device.capture_function("crc32")
        assert device.clock.now > before_ns  # readback costs port time
        assert bitstream.header.function_name == "crc32"
        assert bitstream.frames == device.readback("crc32")

    def test_capture_unloaded_raises(self):
        driver = protected_driver()
        with pytest.raises(ExecutionError):
            driver.coprocessor.device.capture_function("crc32")

    def test_relocate_overlapping_region_preserves_payloads(self):
        driver = protected_driver()
        driver.preload("crc32")
        device = driver.coprocessor.device
        old_region = device.region_of("crc32")
        payloads = device.readback("crc32")
        tiles = device.geometry.tiles_per_column
        base = min(a.column * tiles + a.tile for a in old_region)
        # Shift up by one frame: the target overlaps the source.
        target = rebase_region(device.geometry, old_region, device.geometry, base + 1)
        elapsed = device.relocate_function("crc32", target)
        assert elapsed > 0
        assert device.readback("crc32") == payloads
        assert list(device.region_of("crc32")) == list(target)
        # Ownership moved in lockstep; the vacated frame is erased and free.
        vacated = [a for a in old_region if a not in set(target)]
        for address in vacated:
            assert device.memory.owner_of(address) is None
            assert not any(device.memory.frames[address].to_config_bytes())
        for address in target:
            assert device.memory.owner_of(address) == "crc32"
            assert device.memory.frame_crc_ok(address)
        # Golden images followed the move.
        golden = device.golden
        for address, payload in zip(target, payloads):
            assert golden.payload_for(address) == payload
        for address in vacated:
            assert address not in golden._images

    def test_relocate_refuses_foreign_frames_and_wrong_sizes(self):
        driver = protected_driver()
        driver.preload("crc32")
        driver.preload("adder8")
        device = driver.coprocessor.device
        foreign = device.region_of("adder8")
        crc_region = device.region_of("crc32")
        collision = FrameRegion.from_addresses(
            list(foreign)[:1] + list(crc_region)[1:]
        )
        with pytest.raises(FrameCollisionError):
            device.relocate_function("crc32", collision)
        with pytest.raises(ConfigurationError):
            device.relocate_function("crc32", FrameRegion.from_addresses(list(crc_region)[:-1]))

    def test_relocate_same_region_is_a_free_noop(self):
        driver = protected_driver()
        driver.preload("crc32")
        device = driver.coprocessor.device
        before_ns = device.clock.now
        assert device.relocate_function("crc32", device.region_of("crc32")) == 0.0
        assert device.clock.now == before_ns

    def test_relocate_on_wedged_port_refuses(self, refuse_configuration):
        driver = protected_driver()
        driver.preload("crc32")
        device = driver.coprocessor.device
        region = device.region_of("crc32")
        payloads = device.readback("crc32")
        target = rebase_region(
            device.geometry, region, device.geometry,
            device.geometry.all_frames().index(min(region.addresses)) + 1,
        )
        refuse_configuration(device)
        with pytest.raises(ConfigurationError):
            device.relocate_function("crc32", target)
        # Still intact where it was.
        assert device.region_of("crc32") == region
        assert device.readback("crc32") == payloads


class TestCaptureRestorePci:
    def test_migration_roundtrip_is_byte_identical(self):
        source, dest = protected_driver(), protected_driver()
        source.preload("crc32")
        payloads = source.coprocessor.device.readback("crc32")
        blob = migrate(source, dest, "crc32")
        assert not source.coprocessor.minios.is_resident("crc32")
        assert dest.coprocessor.minios.is_resident("crc32")
        assert dest.coprocessor.device.readback("crc32") == payloads
        assert len(blob) < sum(len(p) for p in payloads)  # it travelled compressed
        # The restored function still computes.
        assert dest.call("crc32", b"abcd1234").output

    def test_restore_pays_card_time_and_pci_transfer(self):
        source, dest = protected_driver(), protected_driver()
        source.preload("crc32")
        blob = source.capture_function("crc32")
        before = dest.clock.now
        dest.restore_function("crc32", blob)
        assert dest.clock.now > before

    def test_capture_of_nonresident_function_fails_cleanly(self):
        driver = protected_driver()
        with pytest.raises(CoprocessorError):
            driver.capture_function("crc32")
        # The card answered, not crashed.
        crc32 = driver.coprocessor.bank.by_name("crc32").function_id
        assert driver.card.command(CommandKind.CAPTURE, crc32, 0, b"") == (STATUS_NOT_RESIDENT, None)

    def test_restore_refuses_wrong_function_blob(self):
        source, dest = protected_driver(), protected_driver()
        source.preload("crc32")
        blob = source.capture_function("crc32")
        with pytest.raises(CoprocessorError):
            dest.restore_function("adder8", blob)
        assert not dest.coprocessor.minios.is_resident("adder8")

    def test_restore_refuses_empty_blob_and_garbage(self):
        dest = protected_driver()
        with pytest.raises(CoprocessorError):
            dest.restore_function("crc32", b"")
        with pytest.raises(CoprocessorError):
            dest.restore_function("crc32", b"not a compressed image")

    def test_restore_on_already_resident_card_is_a_hit(self):
        source, dest = protected_driver(), protected_driver()
        source.preload("crc32")
        dest.preload("crc32")
        blob = source.capture_function("crc32")
        outcome_region = dest.coprocessor.device.region_of("crc32")
        dest.restore_function("crc32", blob)
        assert list(dest.coprocessor.device.region_of("crc32")) == list(outcome_region)

    def test_failed_restore_never_evicts_residents(self):
        """Blob validation must run before the irreversible eviction loop."""
        from repro.core.config import CoprocessorConfig
        from repro.functions.bank import build_small_bank

        # 8 frames: restoring 7-frame crc32 next to three 1-frame residents
        # forces an eviction plan — which a bad blob must never execute.
        tiny = CoprocessorConfig(
            fabric_columns=2,
            fabric_rows=16,
            clb_rows_per_frame=4,
            rom_capacity_bytes=1 << 20,
            ram_capacity_bytes=1 << 18,
            seed=11,
        )
        source = protected_driver()
        source.preload("crc32")
        blob = source.capture_function("crc32")
        dest = build_host_system(build_coprocessor(config=tiny, bank=build_small_bank()))
        for name in ("parity32", "adder8", "popcount8"):
            dest.preload(name)
        residents = dest.card.resident_functions()
        for bad_blob in (blob[: len(blob) // 2], blob[:-3] + b"\x00\x00\x00"):
            with pytest.raises(CoprocessorError):
                dest.restore_function("crc32", bad_blob)
            assert dest.card.resident_functions() == residents
        # The intact blob, by contrast, is allowed to evict its way in.
        dest.restore_function("crc32", blob)
        assert dest.coprocessor.minios.is_resident("crc32")

    def test_rebalancer_never_plans_onto_incompatible_fabrics(self, small_bank):
        from repro.core.builder import build_host_driver
        from repro.cluster import Fleet

        drivers = [
            build_host_driver(config=SMALL_CONFIG.with_overrides(seed=13), bank=small_bank),
            build_host_driver(
                config=SMALL_CONFIG.with_overrides(seed=13, clb_rows_per_frame=8),
                bank=small_bank,
            ),
        ]
        fleet = Fleet(drivers, policy="affinity", queue_depth=8)
        rebalancer = fleet.enable_rebalancing(40_000.0)
        for name in small_bank.names():
            fleet.cards[0].driver.preload(name)
        # Maximal residency skew, but the only receiver's frames are twice
        # the size.
        assert rebalancer.plan(fleet) == []

    def test_restore_on_wedged_port_fails_like_a_load(self, refuse_configuration):
        source, dest = protected_driver(), protected_driver()
        source.preload("crc32")
        blob = source.capture_function("crc32")
        refuse_configuration(dest.coprocessor.device)
        with pytest.raises(CoprocessorError):
            dest.restore_function("crc32", blob)
        assert not dest.coprocessor.minios.is_resident("crc32")


class TestDefragmenter:
    def fragmented_driver(self):
        driver = protected_driver()
        names = driver.coprocessor.bank.names()
        for name in names:
            driver.preload(name)
        for name in names[::2]:
            driver.evict(name)
        return driver

    def test_defrag_compacts_and_preserves_readback(self):
        driver = self.fragmented_driver()
        coprocessor = driver.coprocessor
        device = coprocessor.device
        resident = coprocessor.minios.resident_functions()
        readbacks = {name: device.readback(name) for name in resident}
        frag_before = coprocessor.defragmenter.fragmentation()
        run_before = coprocessor.minios.placer.largest_free_run(coprocessor.minios.free_frames())
        moved = driver.defrag_card()
        assert moved > 0
        assert coprocessor.defragmenter.fragmentation() <= frag_before
        assert coprocessor.minios.placer.largest_free_run(coprocessor.minios.free_frames()) >= run_before
        for name in resident:
            assert device.readback(name) == readbacks[name]
            for address in device.region_of(name):
                assert device.memory.frame_crc_ok(address)
        # The mini OS's free list agrees with the device's owner map.
        assert (
            coprocessor.minios.free_frames() == device.memory.unowned_frames()
        )

    def test_defrag_budget_bounds_moves(self):
        driver = self.fragmented_driver()
        result = driver.coprocessor.defrag(max_moves=1)
        assert result.moves <= 1

    def test_defrag_without_service_is_bad_command(self):
        driver = protected_driver(defrag=False)
        with pytest.raises(CoprocessorError):
            driver.defrag_card()

    def test_defrag_charges_card_time(self):
        driver = self.fragmented_driver()
        before = driver.clock.now
        driver.defrag_card()
        assert driver.clock.now > before

    def test_defrag_is_idempotent_once_compact(self):
        driver = self.fragmented_driver()
        driver.defrag_card()
        assert driver.defrag_card() == 0  # second pass has nothing to move


class TestFleetRebalancing:
    def skewed_fleet(self, bank, rebalance=True, cards=3, **kwargs):
        fleet = build_fleet(
            cards=cards,
            config=SMALL_CONFIG.with_overrides(seed=13),
            bank=bank,
            policy="affinity",
            queue_depth=8,
            rebalance_period_ns=40_000.0 if rebalance else None,
            rebalance_min_queue_skew=6,
            **kwargs,
        )
        for name in bank.names():
            fleet.cards[0].driver.preload(name)
        return fleet

    def small_trace(self, bank, length=120, seed=13):
        return multi_tenant_trace(
            bank,
            default_tenant_mix(bank, tenants=2, skew=1.2),
            length=length,
            mean_interarrival_ns=5_000.0,
            seed=seed,
        )

    def test_rebalancing_migrates_without_byte_diffs(self, small_bank):
        fleet = self.skewed_fleet(small_bank)
        stats = fleet.run(self.small_trace(small_bank))
        summary = fleet.rebalance_summary()
        assert summary["migrations_completed"] > 0
        assert summary["migration_byte_diffs"] == 0
        assert stats.completed + stats.rejected == stats.arrivals
        assert all(card.outstanding == 0 for card in fleet.cards)
        # Residency actually spread off card 0.
        assert any(card.resident_functions() for card in fleet.cards[1:])

    def test_rebalanced_schedules_are_deterministic(self, small_bank):
        def run():
            fleet = self.skewed_fleet(small_bank)
            fleet.run(self.small_trace(small_bank))
            return fleet.fingerprint()

        assert run() == run()

    def test_migrations_alter_the_schedule_digest(self, small_bank):
        off = self.skewed_fleet(small_bank, rebalance=False)
        off_stats = off.run(self.small_trace(small_bank))
        on = self.skewed_fleet(small_bank, rebalance=True)
        on_stats = on.run(self.small_trace(small_bank))
        assert on.rebalance_summary()["migrations_completed"] > 0
        assert off_stats.schedule_digest() != on_stats.schedule_digest()

    def test_migration_to_dead_card_fails_over_cleanly(self, small_bank):
        fleet = self.skewed_fleet(small_bank)
        trace = self.small_trace(small_bank, length=80)
        # Kill the (only) natural receiver early: orders targeting it must be
        # recorded as failures, never crash a worker or leak outstanding.
        fleet.kill_card(1)
        stats = fleet.run(trace)
        summary = fleet.rebalance_summary()
        assert stats.completed + stats.rejected == stats.arrivals
        assert all(card.outstanding == 0 for card in fleet.cards)
        assert summary["migration_byte_diffs"] == 0

    def test_enable_rebalancing_validates_period(self, small_bank):
        fleet = build_fleet(cards=2, config=SMALL_CONFIG, bank=small_bank)
        with pytest.raises(ValueError):
            fleet.enable_rebalancing(0.0)

    def test_rebalancer_cooldown_is_coerced_to_int_ns(self, small_bank):
        # Ten periods: an integral-float period lands as an int cooldown, and
        # one whose ten periods are not whole nanoseconds is refused.
        fleet = build_fleet(cards=2, config=SMALL_CONFIG, bank=small_bank)
        coerced = fleet.enable_rebalancing(25_000.0)
        assert coerced.cooldown_ns == 250_000
        assert isinstance(coerced.cooldown_ns, int)
        with pytest.raises(TypeError):
            build_fleet(cards=2, config=SMALL_CONFIG, bank=small_bank).enable_rebalancing(100.05)

    def test_enable_rebalancing_default_cooldown_is_int_ten_periods(self, small_bank):
        fleet = build_fleet(cards=2, config=SMALL_CONFIG, bank=small_bank)
        rebalancer = fleet.enable_rebalancing(40_000.0)
        assert rebalancer.cooldown_ns == 400_000
        assert isinstance(rebalancer.cooldown_ns, int)

    def test_rebalancer_plans_nothing_on_a_balanced_fleet(self, small_bank):
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=13),
            bank=small_bank,
            policy="affinity",
        )
        rebalancer = fleet.enable_rebalancing(40_000.0)
        # Frame-balanced residency: crc32 is about as big as the other three
        # functions together, so neither queue depth nor frame usage is
        # skewed enough to justify paying for a migration.
        fleet.cards[0].driver.preload("crc32")
        for name in ("parity32", "adder8", "popcount8"):
            fleet.cards[1].driver.preload(name)
        assert rebalancer.plan(fleet) == []

    def test_fleet_defrag_service_compacts_cards(self, small_bank):
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=13),
            bank=small_bank,
            policy="affinity",
            defrag_period_ns=30_000.0,
        )
        driver = fleet.cards[0].driver
        names = small_bank.names()
        for name in names:
            driver.preload(name)
        for name in names[::2]:
            driver.evict(name)
        frag_before = fleet.cards[0].driver.coprocessor.defragmenter.fragmentation()
        assert frag_before > 0
        fleet.run(self.small_trace(small_bank, length=40))
        summary = fleet.rebalance_summary()
        assert summary["defrag_passes"] > 0
        assert summary["defrag_frames_moved"] > 0
        assert fleet.cards[0].driver.coprocessor.defragmenter.fragmentation() == 0.0


class TestMigrationFailureBranches:
    """One drill per way a migration can fail (or finish early): the reason
    is recorded, nothing stays marked in flight, no queue slot leaks, the
    card time a failed phase spent is charged, and the invariant pack holds."""

    FUNCTION = "crc32"

    def two_cards(self, bank):
        fleet = build_fleet(
            cards=2,
            config=SMALL_CONFIG.with_overrides(seed=13),
            bank=bank,
            fault_tolerance=True,
        )
        fleet.cards[0].driver.preload(self.FUNCTION)
        return fleet

    def settled(self, fleet, violations, reason):
        assert violations == []
        assert dict(fleet.stats.migration_failure_reasons) == ({reason: 1} if reason else {})
        assert fleet.stats.migrations_completed == (0 if reason else 1)
        assert fleet.migrating == set()
        assert all(card.outstanding == 0 for card in fleet.cards)

    def test_source_lost(self, small_bank, order_drill):
        fleet = self.two_cards(small_bank)
        fleet.cards[0].driver.evict(self.FUNCTION)
        fleet.order_migration(self.FUNCTION, 0, 1)
        self.settled(fleet, order_drill(fleet), "source-lost")
        assert fleet.cards[0].busy_ns == 0.0

    def test_capture_failed(self, small_bank, order_drill, monkeypatch):
        from repro.core import card as card_module

        fleet = self.two_cards(small_bank)
        # Too small an output half for the image: the card reads the frames
        # back and compresses them, then has to refuse.
        monkeypatch.setattr(card_module, "WINDOW_BYTES", card_module.OUTPUT_OFFSET + 16)
        fleet.order_migration(self.FUNCTION, 0, 1)
        self.settled(fleet, order_drill(fleet), "capture-failed")
        assert fleet.cards[0].busy_ns == fleet.clock.now > 0
        assert fleet.cards[0].holds(self.FUNCTION)

    def test_dest_down(self, small_bank, order_drill):
        fleet = self.two_cards(small_bank)
        fleet.order_migration(self.FUNCTION, 0, 1)
        mid_capture = (lambda: fleet.clock.now > 0, lambda: fleet.kill_card(1))
        self.settled(fleet, order_drill(fleet, when=mid_capture), "dest-down")
        assert fleet.cards[0].busy_ns == fleet.clock.now > 0
        assert fleet.cards[0].holds(self.FUNCTION)

    def test_dest_died(self, small_bank, order_drill):
        fleet = self.two_cards(small_bank)
        source = fleet.cards[0]
        fleet.order_migration(self.FUNCTION, 0, 1)
        # Two whole-device scrubs keep the destination busy past the capture,
        # so the image waits in its queue; it dies with the image queued.
        image_queued = (lambda: source.outstanding == 0, lambda: fleet.kill_card(1))
        violations = order_drill(
            fleet, (1, ScrubOrder(None)), (1, ScrubOrder(None)), when=image_queued
        )
        self.settled(fleet, violations, "dest-died")
        assert source.holds(self.FUNCTION)

    def test_restore_failed(self, small_bank, order_drill, refuse_configuration):
        fleet = self.two_cards(small_bank)
        refuse_configuration(fleet.cards[1])
        fleet.order_migration(self.FUNCTION, 0, 1)
        self.settled(fleet, order_drill(fleet), "restore-failed")
        # The refused restore still staged the blob over the destination's bus.
        assert fleet.cards[1].busy_ns > 0
        assert fleet.cards[0].holds(self.FUNCTION)
        assert not fleet.cards[1].driver.coprocessor.minios.is_resident(self.FUNCTION)

    def test_source_dying_in_flight_completes_at_the_restore(self, small_bank, order_drill):
        fleet = self.two_cards(small_bank)
        source, dest = fleet.cards
        fleet.order_migration(self.FUNCTION, 0, 1)
        restoring = (lambda: dest.outstanding == 1, lambda: fleet.kill_card(0))
        self.settled(fleet, order_drill(fleet, when=restoring), None)
        assert dest.holds(self.FUNCTION)
        assert fleet.stats.migration_byte_diffs == 0
        # Nothing was left to release: the kernel stopped when the restore did.
        assert fleet.clock.now == source.busy_ns + dest.busy_ns
