"""Tests for the PCI card personality and the host driver."""

import pytest

from repro.core.builder import build_coprocessor
from repro.core.card import CoprocessorCard
from repro.core.exceptions import UnknownFunctionError
from repro.core.host import build_host_system
from repro.mcu.commands import (
    REG_COMMAND,
    REG_FUNCTION_ID,
    REG_OUTPUT_LENGTH,
    REG_STATUS,
    STATUS_OK,
    STATUS_UNKNOWN_FUNCTION,
    CommandKind,
)


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
        pci_overhead_ns = result.input_transfer_ns + result.output_transfer_ns + result.command_ns
        card_latency_ns = result.card_result.latency_ns
        assert pci_overhead_ns > 0
        assert card_latency_ns > 0
        assert result.total_ns == pytest.approx(pci_overhead_ns + card_latency_ns, rel=0.05)

    def test_second_call_benefits_from_residency(self, driver):
        first = driver.call("parity32", bytes(4))
        second = driver.call("parity32", bytes(4))
        assert second.total_ns < first.total_ns

    def test_small_payload_uses_pio_and_large_uses_dma(self, driver):
        driver.call("crc32", bytes(8))
        pio_jobs = driver.bridge.dma.jobs_completed
        driver.call("crc32", bytes(4096))
        assert driver.bridge.dma.jobs_completed > pio_jobs

    def test_unknown_function_rejected_before_touching_the_bus(self, driver):
        transactions = driver.bus.transactions_completed
        with pytest.raises(UnknownFunctionError):
            driver.call("ghost", b"")
        assert driver.bus.transactions_completed == transactions

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
        assert driver.calls == 2
        assert driver.clock is driver.coprocessor.clock


class TestCardRegisterInterface:
    def test_direct_register_protocol(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        function = coprocessor.bank.by_name("crc32")
        payload = b"register level"
        card.interface.write_window(0, payload)
        card.interface.write_register(REG_FUNCTION_ID, function.function_id)
        card.interface.write_register(0x08, len(payload))  # REG_INPUT_LENGTH
        card.interface.write_register(REG_COMMAND, int(CommandKind.EXECUTE))
        assert card.interface.read_register(REG_STATUS) == STATUS_OK
        output_length = card.interface.read_register(REG_OUTPUT_LENGTH)
        output = card.interface.read_window(card.output_offset, output_length)
        assert output == function.behaviour(payload)

    def test_unknown_function_id_sets_error_status(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        card.interface.write_register(REG_FUNCTION_ID, 250)
        card.interface.write_register(REG_COMMAND, int(CommandKind.EXECUTE))
        assert card.interface.read_register(REG_STATUS) == STATUS_UNKNOWN_FUNCTION

    def test_bad_opcode_sets_error_status(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        card.interface.write_register(REG_COMMAND, 0x99)
        assert card.interface.read_register(REG_STATUS) != STATUS_OK

    def test_reset_command_clears_fabric(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        coprocessor.execute("crc32", b"x")
        card.interface.write_register(REG_COMMAND, int(CommandKind.RESET))
        assert card.interface.read_register(REG_STATUS) == STATUS_OK
        assert coprocessor.loaded_functions() == []

    def test_commands_processed_counter(self, small_config, small_bank):
        coprocessor = build_coprocessor(config=small_config, bank=small_bank)
        card = CoprocessorCard(coprocessor)
        card.interface.write_register(REG_COMMAND, int(CommandKind.NOP))
        card.interface.write_register(REG_COMMAND, int(CommandKind.NOP))
        assert card.commands_processed == 2
