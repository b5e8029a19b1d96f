"""Truth-table builders the fabric tests make LUTs from.

No model netlist needs them — the generators in ``repro.functions.netgen``
build padded LUTs through :meth:`LookUpTable.from_function` — so they live
with the tests that use them.
"""

from __future__ import annotations

from repro.fpga.lut import LookUpTable


def logic_and(inputs: int) -> LookUpTable:
    return LookUpTable.from_function(inputs, all)


def logic_or(inputs: int) -> LookUpTable:
    return LookUpTable.from_function(inputs, any)


def logic_xor(inputs: int) -> LookUpTable:
    return LookUpTable.from_function(inputs, lambda bits: sum(bits) % 2 == 1)
