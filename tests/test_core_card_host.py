"""Tests for the PCI card personality and the host driver."""

import collections
import os
import random
import sys

import pytest

import repro
from repro.core.builder import build_coprocessor, build_fleet, build_host_driver
from repro.core.config import SMALL_CONFIG, CoprocessorConfig
from repro.core.card import CoprocessorCard
from repro.core.exceptions import CoprocessorError, UnknownFunctionError
from repro.core.host import build_host_system
from repro.mcu.commands import STATUS_OK, STATUS_UNKNOWN_FUNCTION, CommandKind


@pytest.fixture
def driver(small_config, small_bank):
    coprocessor = build_coprocessor(config=small_config, bank=small_bank)
    return build_host_system(coprocessor)


class TestHostDriver:
    def test_call_returns_correct_output(self, driver):
        data = bytes(range(40))
        expected = driver.coprocessor.bank.by_name("crc32").behaviour(data)
        result = driver.call("crc32", data)
        assert result.output == expected
        assert result.total_ns > 0
        assert result.card_result is not None

    def test_pci_overhead_is_separated_from_card_time(self, driver):
        result = driver.call("crc32", bytes(200))
        card_latency_ns = result.card_result.latency_ns
        assert card_latency_ns > 0
        # What the host waited beyond the card's own time is PCI transfer
        # and register traffic.
        assert result.total_ns > card_latency_ns

    def test_second_call_benefits_from_residency(self, driver):
        first = driver.call("parity32", bytes(4))
        second = driver.call("parity32", bytes(4))
        assert second.total_ns < first.total_ns

    def test_small_payload_uses_pio_and_large_uses_dma(self, driver, monkeypatch):
        jobs = []
        dma = driver.bus.dma
        monkeypatch.setattr(
            driver.bus, "dma", lambda action, address, length, burst: jobs.append(length) or dma(action, address, length, burst)
        )
        driver.call("crc32", bytes(8))
        assert jobs == []
        driver.call("crc32", bytes(4096))
        assert jobs == [4096]

    def test_unknown_function_rejected_before_touching_the_bus(self, driver):
        transactions = driver.bus.transactions_completed
        with pytest.raises(UnknownFunctionError):
            driver.call("ghost", b"")
        assert driver.bus.transactions_completed == transactions

    @pytest.mark.parametrize("size", [65_537, 70_000, 200_000])
    def test_an_input_beyond_the_window_is_refused_before_the_bus(self, driver, size):
        """The window's input half holds 64 KiB: a larger input or RESTORE
        blob is refused with ``CoprocessorError`` before any bus time."""
        driver.call("crc32", bytes(16))
        before = (driver.clock.now, driver.bus.transactions_completed, driver.bus.busy_time_ns)
        with pytest.raises(CoprocessorError):
            driver.call("crc32", bytes(size))
        with pytest.raises(CoprocessorError):
            driver.restore_function("crc32", bytes(size))
        assert (driver.clock.now, driver.bus.transactions_completed, driver.bus.busy_time_ns) == before

    @pytest.mark.parametrize("name, size", [("crc32", 5_000), ("aes128", 3_000)])
    def test_a_ram_refusal_is_a_typed_card_error(self, default_bank, name, size):
        """A 4 KiB RAM holds neither a 5 000-byte input nor aes128's 3 000-byte
        input beside its 3 000-byte output: the card answers STATUS_CAPACITY,
        the host raises ``CoprocessorError``, and the card serves the next call."""
        driver = build_host_driver(config=CoprocessorConfig(ram_capacity_bytes=4096), bank=default_bank)
        with pytest.raises(CoprocessorError, match="status 5 "):
            driver.call(name, bytes(size))
        assert driver.coprocessor.stats.requests == 0
        payload = bytes(16)
        assert driver.call(name, payload).output == default_bank.by_name(name).behaviour(payload)

    def test_preload_then_call_hits(self, driver):
        driver.preload("adder8")
        result = driver.call("adder8", bytes([2, 3]))
        assert result.card_result.hit
        assert result.output[0] == 5

    def test_evict_and_reset_commands(self, driver):
        driver.call("crc32", b"abc")
        driver.evict("crc32")
        assert not driver.coprocessor.is_loaded("crc32")
        driver.call("crc32", b"abc")
        driver.reset_card()
        assert driver.coprocessor.loaded_functions() == []

    def test_call_counter_and_clock_sharing(self, driver):
        driver.call("crc32", b"a")
        driver.call("crc32", b"b")
        assert driver.coprocessor.stats.requests == 2
        assert driver.clock is driver.coprocessor.clock


REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep


class TestHostCallWork:
    @staticmethod
    def _count(driver, script, rounds):
        """``{code object: Python frames entered}`` under ``src/repro/`` plus
        ``{"c_call:" + builtin name: calls}`` while *driver* runs the
        ``(name, payload)`` calls of *script* *rounds* times."""
        counts = collections.Counter()

        def count_calls(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(REPRO_ROOT):
                counts[frame.f_code] += 1
            elif event == "c_call":
                counts["c_call:" + arg.__qualname__] += 1

        previous = sys.getprofile()
        sys.setprofile(count_calls)
        try:
            for _ in range(rounds):
                for name, payload in script:
                    driver.call(name, payload)
        finally:
            sys.setprofile(previous)
        return counts

    @classmethod
    def _per_round(cls, make_driver, script, rounds):
        """``({code object: frames entered per round of script}, {builtin
        name: calls per round})``: ``(work(2 rounds) - work(rounds)) /
        rounds`` on fresh drivers, each warmed by one round first."""
        counts = []
        for total in (rounds, 2 * rounds):
            driver = make_driver()
            for name, payload in script:
                driver.call(name, payload)
            counts.append(cls._count(driver, script, total))
        small, large = counts
        per_round = {
            key: (large[key] - small[key]) / rounds
            for key in large
            if large[key] != small[key]
        }
        frames = {key: count for key, count in per_round.items() if not isinstance(key, str)}
        builtins = {
            key[len("c_call:"):]: count for key, count in per_round.items() if isinstance(key, str)
        }
        return frames, builtins

    @staticmethod
    def _by_package(per_code):
        by_package = collections.Counter()
        for code, frames in per_code.items():
            by_package[code.co_filename[len(REPRO_ROOT):].split(os.sep, 1)[0]] += frames
        return by_package

    def test_a_resident_hit_enters_115_frames(self, small_bank):
        """The host call's work counter: Python frames entered under
        ``src/repro/`` per resident hit through :meth:`HostDriver.call`
        (``crc32`` on 16 bytes, ``SMALL_CONFIG``), by package —
        ``(frames(2 000) - frames(1 000)) / 1 000``, an exact integer because
        every call takes the same path.  Hop by hop:

        * **the host** — ``call``, ``_write_input``, ``_command``,
          ``_read_output`` and ``_move`` for the input and the output
          (``core`` 6); the bank's ``__contains__``, ``by_name`` and the
          function's ``function_id`` (``functions`` 3); ``clock.now`` at the
          start and the end (``sim`` 2).
        * **seven bus transactions** — the input by programmed I/O, the
          FUNCTION_ID, INPUT_LENGTH and COMMAND writes, the STATUS and
          OUTPUT_LENGTH reads and the output by programmed I/O: each one
          ``PciBus.transfer``, ``PciBusTiming.time_ns`` and ``cycles_for``
          (``pci`` 21), two ``clock.now``, one ``advance`` and one
          ``TraceRecorder.record`` (``sim`` 28).
        * **the COMMAND write's delivery** — ``CoprocessorCard.command``,
          ``AgileCoprocessor.execute`` and ``CoprocessorStatistics.record``
          (``core`` 3); the microcontroller's ``handle_execute``,
          ``ensure_loaded``, ``_load``, the decode's ``_charge_cycles`` and
          ``interface_ns`` for the input and the output, and the mini OS's
          residency check and LRU touch (``mcu`` 13: ``is_resident``,
          ``plan_load``, ``touch`` and the replacement table's
          ``__contains__``, ``entry``, ``touch`` and the entry's ``touch``);
          ``LocalRam.access_ns`` and ``MemoryTiming.transfer_time_ns`` once
          per buffer (``memory`` 4); the fabric run (``fpga`` 3: ``execute``,
          the executor's ``run`` and ``cycles_for``); ``by_id``,
          two ``name``, the bank's second ``__contains__`` and ``by_name``,
          ``frames_required`` and the behaviour model (``functions`` 7);
          ``bitstream`` 1, ``analysis`` 1 and ``sim`` 23: 7 ``clock.now``,
          4 ``advance`` (decode, staging and feed, fabric, collect and
          readout), 8 ``record`` (a ``ram`` write and read per buffer,
          ``data-in``, ``fpga``, ``data-out`` and ``mcu``) and 4
          ``cycles_to_ns``.

        Beside the frames, the builtin calls (``sys.setprofile``'s ``c_call``
        events, by name) per hit are pinned too: 32, 13 of them the
        ``round`` of a time computed in nanoseconds.

        116 while the load's planning read ``clock.now`` for the policy,
        which no policy used (``sim`` 54); 122 while ``ClockDomain.period_ns`` was a property (4 more ``sim``
        frames) and the mini OS's capacity check read the geometry's
        ``frame_count`` and ``tiles_per_column`` properties (``fpga`` 5);
        165 while a first-fit allocator with labelled allocations and a byte
        image backed the RAM and two data-module objects moved each buffer
        (``memory`` 15, ``mcu`` 16, ``sim`` 87: 33 ``clock.now`` in the
        delivery alone); 326 before the host called the card directly, when
        each transaction was a ``PciTransaction`` routed, BAR-decoded and
        landed in a register file whose COMMAND hook ran the card (``pci``
        170, ``sim`` 94, ``core`` 14).
        """
        per_code, builtins = self._per_round(
            lambda: build_host_driver(config=SMALL_CONFIG, bank=small_bank),
            [("crc32", bytes(range(16)))],
            1_000,
        )
        for code in per_code:
            assert code.co_name not in ("<listcomp>", "<genexpr>"), code
        per_call = self._by_package(per_code)
        assert dict(per_call) == {
            "sim": 53,
            "pci": 21,
            "mcu": 13,
            "functions": 10,
            "core": 9,
            "memory": 4,
            "fpga": 3,
            "bitstream": 1,
            "analysis": 1,
        }
        assert sum(per_call.values()) == 115
        assert builtins == {
            "round": 13, "len": 10, "dict.get": 3, "max": 3, "hash": 1, "crc32": 1,
            "int.to_bytes": 1,
        }

    def test_a_churn_miss_pair_enters_665_frames(self, default_bank):
        """The miss path's work counter: Python frames entered under
        ``src/repro/`` per pair of misses, by package.  The card is
        ``card_reconfig_churn``'s (an 8 x 64 fabric at 8 rows per frame, so
        64 frames, and the ``lz77`` codec); ``aes128`` on 16 bytes (38
        frames) alternates with ``modexp512`` on 64 bytes (50 frames), so
        after the first pair every call is a miss that evicts the other
        function and loads onto an empty fabric.
        ``(frames(20 pairs) - frames(10 pairs)) / 10``, an exact integer
        because every pair takes the same path.

        A pair writes 88 frames and erases 88, and the host work is per load,
        not per frame, except for each frame's own bytes.  ``fpga`` 240:
        one ``load_config_bytes`` per frame written (its length check, check
        word and store) and one ``Frame.clear`` per frame erased (176); per load
        the claim, the memory's ``write_region`` and ``clear_region``, the
        port's ``configure``, ``transfer_time_ns``, ``frames_time_ns`` and
        one ``write_time_ns`` (every frame has the same length), the
        device's ``configure_partial``, ``_bind``, ``unload`` and
        ``execute``, the executor's ``run`` and ``cycles_for``, and
        placement's ``choose_frames`` and contiguous-run scan, which sort
        and index the 64 candidates without a call per candidate (30); the
        ``FrameRegion`` protocol (``__len__`` 18, ``__iter__`` 12, its
        construction 4).  ``bitstream`` 6 is per load: ``payload_crc`` and
        its ``crc32``, and the port's one ``crc32`` over the joined
        payloads.  ``sim`` 174: ``clock.now`` 66, ``record`` 43,
        ``cycles_to_ns`` 37 (25 of them one per decompression window) and
        ``advance`` 28.  ``mcu`` 116 is the microcontroller's load and the
        mini OS's plan and commits; the Free Frame List it plans from is
        one scan of the replacement table.

        667 while each load's planning read ``clock.now`` for the policy
        (``sim`` 176).  2 314 while the port, the claim and the erase worked per frame:
        seven ``fpga`` frames per frame written (the claim's ``validate``
        and its ``tiles_per_column``, ``write_frame``, the frame array's
        ``__getitem__``, ``load_config_bytes``, the port's ``write_time_ns``
        and its generator step), three per frame erased, a key lambda per
        placement candidate (``fpga`` 1 418); three ``crc32`` per frame
        written (``bitstream`` 266); a ``cycles_to_ns`` and ``period_ns``
        per frame written (``sim`` 385).  2 838 while the mini OS kept a
        separate free frame list (set plus cached sorted view) and the
        configuration memory three more ownership indexes beside its owner
        map (``fpga`` 1 900, ``mcu`` 158).  Comprehension frames are left out: Python 3.12 inlines them
        (PEP 709), so they are not frames on every supported interpreter.
        Generator expressions and lambdas are frames everywhere and count.

        The pair's builtin calls (``c_call`` events, by name) are pinned
        beside its frames, because a builtin method call enters no frame:
        921, most of them per frame (``len``, ``list.append`` and the check
        word's ``crc32``).  A fault-free memory's ``suspect`` set is empty,
        so a write and an erase call nothing on it; 1 185 while each frame
        written and each frame erased made a ``set.discard`` (176 per pair),
        1 009 while each frame written was tested against a padding mask (an
        ``int.from_bytes`` per frame, 88 per pair).
        """
        config = CoprocessorConfig(
            fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8, codec_name="lz77"
        )
        per_code, builtins = self._per_round(
            lambda: build_host_driver(config=config, bank=default_bank),
            [("aes128", bytes(range(16))), ("modexp512", bytes(range(64)))],
            10,
        )
        per_pair = self._by_package(
            {
                code: frames
                for code, frames in per_code.items()
                if code.co_name not in ("<listcomp>", "<dictcomp>", "<setcomp>")
            }
        )
        assert dict(per_pair) == {
            "fpga": 240,
            "sim": 174,
            "mcu": 116,
            "functions": 42,
            "pci": 42,
            "memory": 25,
            "core": 18,
            "bitstream": 6,
            "analysis": 2,
        }
        assert sum(per_pair.values()) == 665
        assert builtins == {
            "len": 364, "list.append": 322, "crc32": 92, "int.from_bytes": 1, "round": 64,
            "iter": 16, "dict.get": 10, "min": 9, "max": 8, "hash": 4, "sorted": 4,
            "dict.values": 4, "dict.pop": 4, "sum": 4, "bytes.join": 4, "set.add": 2,
            "list.extend": 2, "getattr": 2, "list.count": 2, "bytearray.extend": 2,
            "int.to_bytes": 1,
        }
        assert sum(builtins.values()) == 921


class TestScrubWork:
    """The scrubber's work counter: Python frames entered (every code object
    but comprehensions, which Python 3.12 inlines) per scrub pass on a
    protected ``SMALL_CONFIG`` card (64 frames, ``crc32`` loaded).  A pass
    works per *suspect* frame of its window, not per frame checked.

    A clean memory costs 5 frames whatever the window: ``scrub_pass``, one
    resumption of its suspect scan (an empty set), ``_walk``, the result's
    dataclass ``__init__`` and one ``clock.advance`` for the whole window.
    One upset frame adds 12: the scan's second resumption, the advance to
    the frame, ``crc_ok`` before and after the repair, ``payload_for``,
    ``owner_of``, ``write_region`` and its ``load_config_bytes``, the port's
    ``write_time_ns`` and its ``cycles_to_ns``, the repair's advance and
    ``to_config_bytes``.  The frame-by-frame walk entered 3 + 5 per frame
    checked (43, 163 and 323 for these windows) and 9 more per repair.

    Beside the frames, the builtin calls (``c_call`` events by name, the
    profiler's own ``sys.setprofile`` aside): a clean pass makes 3 — the
    suspect offsets' ``dict.items`` and ``sorted``, and ``len`` of the frame
    list — plus a ``min`` and a ``max`` when a window bounds it.  One upset
    frame adds 9, three of them ``zlib.crc32`` (the check before, the
    rewritten frame's check word, the check after) and one ``set.discard``
    (the repaired frame leaves the suspect set); 10 while the rewrite was
    tested against a padding mask (an ``int.from_bytes``).
    """

    CLEAN_PASS = {"scrub_pass": 1, "<genexpr>": 1, "_walk": 1, "__init__": 1, "advance": 1}
    CLEAN_BUILTINS = {"len": 1, "dict.items": 1, "sorted": 1}
    WINDOW_BUILTINS = {"min": 1, "max": 1}
    REPAIR = {
        "<genexpr>": 1, "advance": 2, "crc_ok": 2, "payload_for": 1, "owner_of": 1,
        "write_region": 1, "load_config_bytes": 1, "write_time_ns": 1, "cycles_to_ns": 1,
        "to_config_bytes": 1,
    }
    REPAIR_BUILTINS = {
        "crc32": 3, "len": 2, "dict.get": 1, "set.discard": 1,
        "list.append": 1, "round": 1,
    }

    @staticmethod
    def _work(call, *args):
        """``({code name: frames entered}, {builtin: calls})`` while
        ``call(*args)`` runs."""
        frames = collections.Counter()
        builtins = collections.Counter()

        def count(frame, event, arg):
            if event == "call":
                if frame.f_code.co_name not in ("<listcomp>", "<dictcomp>", "<setcomp>"):
                    frames[frame.f_code] += 1
            elif event == "c_call" and arg is not sys.setprofile:
                builtins[arg.__qualname__] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            call(*args)
        finally:
            sys.setprofile(previous)
        by_name = collections.Counter()
        for code, entered in frames.items():
            by_name[code.co_name] += entered
        return by_name, builtins

    @staticmethod
    def _protected_card(bank):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=bank)
        scrubber = copro.enable_fault_protection()
        copro.preload("crc32")
        return copro, scrubber

    @pytest.mark.parametrize("window", [8, 32, None])
    def test_a_clean_pass_enters_5_frames_for_any_window(self, small_bank, window):
        _, scrubber = self._protected_card(small_bank)
        frames, builtins = self._work(scrubber.scrub_pass, window)
        assert dict(frames) == self.CLEAN_PASS
        windowed = self.WINDOW_BUILTINS if window is not None else {}
        assert dict(builtins) == {**self.CLEAN_BUILTINS, **windowed}

    def test_one_upset_frame_adds_the_repairs_12_frames(self, small_bank):
        copro, scrubber = self._protected_card(small_bank)
        address = copro.device.region_of("crc32").addresses[0]
        assert copro.device.memory.corrupt_bit(address, 1)
        dirty, builtins = self._work(scrubber.scrub_pass, None)
        assert dict(dirty - collections.Counter(self.CLEAN_PASS)) == self.REPAIR
        assert sum(dirty.values()) == 5 + 12
        assert dict(builtins - collections.Counter(self.CLEAN_BUILTINS)) == self.REPAIR_BUILTINS
        assert sum(builtins.values()) == 3 + 9
        assert scrubber.stats.corrected == 1

    def test_the_small_control_plane_fleet_replays_554_serves(
        self, small_bank, control_plane_fleet
    ):
        """``control_plane_fleet`` at seed 11 (600 requests): the memo
        replays 554 serves on fault-protected cards.  It replayed none while
        its gate refused every card with a scrubber or a hazard detector, and
        547 while it keyed an entry by the payload's bytes, not its length."""
        fleet, trace = control_plane_fleet(small_bank, 11)
        fleet.run(trace)
        assert sum(card.memo.replays for card in fleet.cards) == 554


class TestControlTickWork:
    """The control plane's work counters: what a periodic order that finds
    nothing to do costs, as ``{code name: Python frames entered}`` (every
    code object but comprehensions, which Python 3.12 inlines) and
    ``{builtin: c_call events}``, each ``work(2 calls) - work(1 call)``, so
    the profiler's own calls cancel.

    A defrag pass on a packed card (``crc32`` and ``parity32`` loaded on a
    ``SMALL_CONFIG`` card) ranks the table by each region's least address
    and cuts each target out of the raster, so it makes no call per frame:
    10 frames and 13 builtin calls, 74 and 92 while it computed a flat index
    per frame, looked each target frame up by index and measured the Free
    Frame List's fragmentation index after every pass.  A rebalance tick
    reads each live card's ``(outstanding, frames used)`` once, and a donor
    that holds only the function it keeps ends the tick before any function
    is ranked: without skew 1 frame and 4 builtin calls (35 and 10 while the
    planner asked the cards through the ``free_frames`` property chain at
    every test), skewed with a donor keeping its one function 2 and 6 (46
    and 18), skewed with every function covered on another card 13 and 15
    (55 and 22).
    """

    PACKED_PASS = (
        {"defrag_pass": 1, "_packed_targets": 1, "__iter__": 1, "__init__": 3,
         "__post_init__": 2, "_relocate": 2},
        {"len": 6, "min": 2, "list.append": 2, "list.sort": 1, "dict.values": 1, "iter": 1},
    )
    CALM_TICK = ({"plan": 1}, {"min": 2, "len": 1, "max": 1})
    KEEPING_TICK = ({"plan": 1, "names": 1}, {"min": 3, "len": 2, "max": 1})
    COVERED_TICK = (
        {"plan": 1, "names": 1, "now": 1, "<lambda>": 2, "<genexpr>": 4, "holds": 2,
         "__contains__": 2},
        {"len": 4, "min": 3, "max": 1, "dict.get": 2, "defaultdict.get": 2, "any": 2,
         "list.sort": 1},
    )

    @staticmethod
    def _work(calls, call, *args):
        """``({code name: frames}, {builtin: calls})`` while ``call(*args)``
        runs *calls* times."""
        frames = collections.Counter()
        builtins = collections.Counter()

        def count(frame, event, arg):
            if event == "call":
                if frame.f_code.co_name not in ("<listcomp>", "<dictcomp>", "<setcomp>"):
                    frames[frame.f_code] += 1
            elif event == "c_call":
                builtins[arg.__qualname__] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for _ in range(calls):
                call(*args)
        finally:
            sys.setprofile(previous)
        by_name = collections.Counter()
        for code, entered in frames.items():
            by_name[code.co_name] += entered
        return by_name, builtins

    @classmethod
    def _per_call(cls, call, *args):
        once = cls._work(1, call, *args)
        twice = cls._work(2, call, *args)
        return tuple(dict(b - a) for a, b in zip(once, twice))

    @staticmethod
    def _fleet(bank, *residency):
        """Three ``SMALL_CONFIG`` cards under a rebalancer; card *i* preloads
        ``residency[i]``."""
        fleet = build_fleet(cards=3, config=SMALL_CONFIG, bank=bank, rebalance_period_ns=40_000)
        for card, names in zip(fleet.cards, residency):
            for name in names:
                card.driver.preload(name)
        return fleet

    def test_a_pass_on_a_packed_card(self, small_bank):
        copro = build_coprocessor(config=SMALL_CONFIG, bank=small_bank)
        copro.enable_defrag()
        copro.preload("crc32")
        copro.preload("parity32")
        assert self._per_call(copro.defragmenter.defrag_pass) == self.PACKED_PASS
        assert copro.defragmenter.stats.moves == 0

    def test_a_tick_without_skew(self, small_bank):
        fleet = self._fleet(small_bank, ["crc32"], ["crc32"], ["crc32"])
        assert self._per_call(fleet.rebalancer.plan, fleet) == self.CALM_TICK

    def test_a_skewed_tick_whose_donor_keeps_its_only_function(self, small_bank):
        fleet = self._fleet(small_bank, ["crc32"])
        assert self._per_call(fleet.rebalancer.plan, fleet) == self.KEEPING_TICK
        assert fleet.rebalancer.plan(fleet) == []

    def test_a_skewed_tick_whose_functions_are_covered_elsewhere(self, small_bank):
        fleet = self._fleet(small_bank, ["crc32", "parity32"], ["crc32", "parity32"])
        assert self._per_call(fleet.rebalancer.plan, fleet) == self.COVERED_TICK
        assert fleet.rebalancer.plan(fleet) == []


class TestBehaviourWork:
    """The bank's work counter: what one ``behaviour`` call of each of
    ``card_reconfig_churn``'s 13 functions costs on a nominal-size payload
    (seeded random bytes), as ``(Python frames entered under src/repro/,
    builtin calls)``.  Builtin calls are ``sys.setprofile``'s ``c_call``
    events: the calls into C that a model's Python makes, so a model that
    falls back to a Python loop calling ``min``, ``max``, ``struct.pack`` or
    ``list.append`` per sample or per bit shows here although it enters no
    new frame.  Both counts are ``(work(2 calls) - work(1 call))`` after a
    warm-up call, exact integers.  Comprehension frames are left out (Python
    3.12 inlines them, PEP 709); no frame outside ``src/repro/`` is entered,
    so every builtin call is the model's own.

    At the seed's step-by-step models the five rewritten rows were ``des``
    (56, 197: bit lists), ``sha1`` (453, 135: a rotate helper per round),
    ``sha256`` (5, 103), ``fir16`` (131, 390: a ``_saturate`` frame and its
    ``max``/``min`` per sample) and ``fft256`` (515, 2 829: two
    ``struct.pack`` per output value).  ``aes128`` (a ``list.append`` per
    round-key byte) and ``strmatch`` (a ``len`` per position) keep their
    per-byte calls.  ``bitonic64`` was (2, 6) while it ran the network in a
    Python helper; it sorts each block with ``sorted``.
    """

    WORK = {
        "aes128": (20, 148),
        "des": (2, 5),
        "sha1": (1, 2),
        "sha256": (1, 2),
        "modexp512": (2, 5),
        "fir16": (2, 9),
        "fft256": (2, 12),
        "crc32": (2, 2),
        "bitonic64": (1, 6),
        "strmatch": (2, 255),
        "parity32": (1, 4),
        "adder8": (1, 1),
        "popcount8": (1, 2),
    }

    @staticmethod
    def _work(behaviour, payload, calls):
        """``(frames under src/repro/, builtin calls, frames elsewhere)``
        while *behaviour* runs on *payload* *calls* times."""
        counts = collections.Counter()

        def count(frame, event, _):
            if event == "call" and frame.f_code.co_name not in ("<listcomp>", "<dictcomp>", "<setcomp>"):
                counts["repro" if frame.f_code.co_filename.startswith(REPRO_ROOT) else "other"] += 1
            elif event == "c_call":
                counts["builtin"] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for _ in range(calls):
                behaviour(payload)
        finally:
            sys.setprofile(previous)
        return counts["repro"], counts["builtin"], counts["other"]

    def test_each_churn_function_call_is_its_pinned_work(self, default_bank):
        work = {}
        for function in default_bank:
            if function.name == "matmul8":  # not in the churn bank
                continue
            payload = random.Random(function.function_id).randbytes(function.spec.input_bytes)
            function.behaviour(payload)
            once = self._work(function.behaviour, payload, 1)
            twice = self._work(function.behaviour, payload, 2)
            frames, builtins, elsewhere = (b - a for a, b in zip(once, twice))
            assert elsewhere == 0, function.name
            work[function.name] = (frames, builtins)
        assert work == self.WORK


class TestCardRegisterInterface:
    """The card's answer to the registers the host writes: FUNCTION_ID,
    INPUT_LENGTH and the window's input, then the opcode in COMMAND."""

    def test_direct_register_protocol(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        function = coprocessor.bank.by_name("crc32")
        payload = b"register level"
        status, result = card.command(CommandKind.EXECUTE, function.function_id, len(payload), payload)
        assert status == STATUS_OK
        assert result.output == function.behaviour(payload)

    def test_unknown_function_id_sets_error_status(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        assert card.command(CommandKind.EXECUTE, 250, 0, b"") == (STATUS_UNKNOWN_FUNCTION, None)

    def test_bad_opcode_sets_error_status(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        status, _ = card.command(0x99, 0, 0, b"")
        assert status != STATUS_OK

    def test_reset_command_clears_fabric(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        coprocessor.execute("crc32", b"x")
        assert card.command(CommandKind.RESET, 0, 0, b"") == (STATUS_OK, None)
        assert coprocessor.loaded_functions() == []
