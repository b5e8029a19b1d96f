"""Tests for the PCI card personality and the host driver."""

import collections
import os
import random
import sys

import pytest

import repro
from repro.core.builder import build_coprocessor, build_host_driver
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
        """``{code object: Python frames entered}`` under ``src/repro/`` while
        *driver* runs the ``(name, payload)`` calls of *script* *rounds* times."""
        frames = collections.Counter()

        def count_calls(frame, event, _):
            if event == "call" and frame.f_code.co_filename.startswith(REPRO_ROOT):
                frames[frame.f_code] += 1

        previous = sys.getprofile()
        sys.setprofile(count_calls)
        try:
            for _ in range(rounds):
                for name, payload in script:
                    driver.call(name, payload)
        finally:
            sys.setprofile(previous)
        return frames

    @classmethod
    def _per_round(cls, make_driver, script, rounds):
        """``{code object: frames entered per round of script}``:
        ``(frames(2 rounds) - frames(rounds)) / rounds`` on fresh drivers,
        each warmed by one round first."""
        counts = []
        for total in (rounds, 2 * rounds):
            driver = make_driver()
            for name, payload in script:
                driver.call(name, payload)
            counts.append(cls._count(driver, script, total))
        small, large = counts
        return {
            code: (large[code] - small[code]) / rounds
            for code in large
            if large[code] != small[code]
        }

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
        per_code = self._per_round(
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
        one ``load_config_bytes`` per frame written (its canonical mask and
        check word) and one ``Frame.clear`` per frame erased (176); per load
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
        """
        config = CoprocessorConfig(
            fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8, codec_name="lz77"
        )
        per_code = self._per_round(
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
    per-byte calls.
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
        "bitonic64": (2, 6),
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
