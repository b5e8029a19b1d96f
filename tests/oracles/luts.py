"""Truth-table builders the fabric tests make LUTs from, and the reference
evaluation of one LUT.

No model netlist needs them — the generators in ``repro.functions.netgen``
build padded LUTs through :meth:`LookUpTable.from_function`, and the executor
compiles truth tables to shift-and-mask code — so they live with the tests
that use them.
"""

from __future__ import annotations

from typing import Sequence

from repro.fpga.lut import LookUpTable


def evaluate(lut: LookUpTable, input_bits: Sequence[bool]) -> bool:
    """The LUT's output for the input vector (input 0 is the low index bit)."""
    if len(input_bits) != lut.inputs:
        raise ValueError(f"expected {lut.inputs} input bits, got {len(input_bits)}")
    index = sum(1 << position for position, bit in enumerate(input_bits) if bit)
    return (lut.as_integer() >> index) & 1 == 1


def passthrough(inputs: int, which: int = 0) -> LookUpTable:
    """A LUT that copies input *which* to its output."""
    if not 0 <= which < inputs:
        raise ValueError("passthrough input index out of range")
    return LookUpTable.from_function(inputs, lambda bits: bits[which])


def logic_and(inputs: int) -> LookUpTable:
    return LookUpTable.from_function(inputs, all)


def logic_or(inputs: int) -> LookUpTable:
    return LookUpTable.from_function(inputs, any)


def logic_xor(inputs: int) -> LookUpTable:
    return LookUpTable.from_function(inputs, lambda bits: sum(bits) % 2 == 1)
