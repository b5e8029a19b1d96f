"""The simulator's hit path equals its formula (``oracles/miss_formula.py``).

Exact integer equality, term by term: a resident hit's ``breakdown`` is the
command decode, the input's RAM write, its RAM read plus the interface bus
to the fabric, the fabric cycles, the interface bus back plus the output's
RAM write, and its RAM read — ``call_ns``'s card side with no miss — and
``latency_ns`` is their sum.
"""

from oracles.miss_formula import _ns, interface_ns, ram_ns
from repro.core.builder import build_coprocessor
from repro.core.config import CoprocessorConfig
from repro.fpga.device import FABRIC_CLOCK_HZ
from repro.fpga.errors import ExecutionError
from repro.functions.bank import build_default_bank
from repro.mcu.microcontroller import COMMAND_DECODE_CYCLES, MCU_CLOCK_HZ

#: Input sizes in blocks of the function's ``spec.input_bytes``.
BLOCKS = (0, 1, 3, 64)
MAX_INPUT_BYTES = 32 * 1024


def hit_terms(input_bytes: int, output_bytes: int, cycles: int) -> dict:
    """The formula's ``breakdown`` of one resident hit."""
    return {
        "decode": _ns(COMMAND_DECODE_CYCLES, MCU_CLOCK_HZ),
        "stage_input": ram_ns(input_bytes),
        "reconfigure": 0,
        "feed": ram_ns(input_bytes) + interface_ns(input_bytes),
        "execute": _ns(cycles, FABRIC_CLOCK_HZ),
        "collect": interface_ns(output_bytes) + ram_ns(output_bytes),
        "readout": ram_ns(output_bytes),
    }


def test_every_hit_is_its_formula():
    config = CoprocessorConfig()
    bank = build_default_bank()
    copro = build_coprocessor(config=config, bank=bank)
    cases = 0
    for function in bank:
        copro.preload(function.name)
        executor = function.executor(copro.geometry)
        for blocks in BLOCKS:
            size = function.spec.input_bytes * blocks
            assert size <= MAX_INPUT_BYTES
            payload = bytes((7 * index + 3) & 0xFF for index in range(size))
            try:
                output, cycles = executor.run(payload)
            except ExecutionError:
                continue  # a gate-level netlist takes exactly one block
            result = copro.execute(function.name, payload)
            terms = hit_terms(size, len(output), cycles)
            assert (result.hit, result.output) == (True, output), (function.name, blocks)
            assert result.breakdown == terms, (function.name, blocks)
            assert result.latency_ns == sum(terms.values()), (function.name, blocks)
            cases += 1
    assert cases == 47
