"""Tests for the PCI card personality and the host driver."""

import collections
import os
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
    def _frames(bank, calls):
        """``{code object: Python frames entered}`` under ``src/repro/`` for
        *calls* resident hits of ``crc32`` on 16 bytes."""
        driver = build_host_driver(config=SMALL_CONFIG, bank=bank)
        payload = bytes(range(16))
        driver.call("crc32", payload)
        frames = collections.Counter()

        def count_calls(frame, event, _):
            if event == "call" and frame.f_code.co_filename.startswith(REPRO_ROOT):
                frames[frame.f_code] += 1

        previous = sys.getprofile()
        sys.setprofile(count_calls)
        try:
            for _ in range(calls):
                driver.call("crc32", payload)
        finally:
            sys.setprofile(previous)
        return frames

    def test_a_resident_hit_enters_122_frames(self, small_bank):
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
          per buffer (``memory`` 4); the fabric run (``fpga`` 5); ``by_id``,
          two ``name``, the bank's second ``__contains__`` and ``by_name``,
          ``frames_required`` and the behaviour model (``functions`` 7);
          ``bitstream`` 1, ``analysis`` 1 and ``sim`` 28: 8 ``clock.now``,
          4 ``advance`` (decode, staging and feed, fabric, collect and
          readout), 8 ``record`` (a ``ram`` write and read per buffer,
          ``data-in``, ``fpga``, ``data-out`` and ``mcu``), 4
          ``cycles_to_ns`` and 4 ``period_ns``.

        165 while a first-fit allocator with labelled allocations and a byte
        image backed the RAM and two data-module objects moved each buffer
        (``memory`` 15, ``mcu`` 16, ``sim`` 87: 33 ``clock.now`` in the
        delivery alone); 326 before the host called the card directly, when
        each transaction was a ``PciTransaction`` routed, BAR-decoded and
        landed in a register file whose COMMAND hook ran the card (``pci``
        170, ``sim`` 94, ``core`` 14).
        """
        small = self._frames(small_bank, 1_000)
        large = self._frames(small_bank, 2_000)
        per_call = collections.Counter()
        for code in large:
            extra = large[code] - small[code]
            if extra:
                assert code.co_name not in ("<listcomp>", "<genexpr>"), code
                package = code.co_filename[len(REPRO_ROOT):].split(os.sep, 1)[0]
                per_call[package] += extra / 1_000
        assert dict(per_call) == {
            "sim": 58,
            "pci": 21,
            "mcu": 13,
            "functions": 10,
            "core": 9,
            "fpga": 5,
            "memory": 4,
            "bitstream": 1,
            "analysis": 1,
        }
        assert sum(per_call.values()) == 122


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
