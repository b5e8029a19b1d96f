"""Look-up table model.

LUTs are the unit of programmable logic inside a CLB: a ``k``-input LUT stores
``2**k`` truth-table bits and evaluates any boolean function of its inputs.
The netlist executor uses these objects to actually evaluate small mapped
designs, which is how the tests prove the fabric realises real logic rather
than merely storing bytes.

The truth table is stored as a single integer (bit ``i`` = output for input
vector ``i``), so evaluation is one shift-and-mask and serialisation is one
``int.to_bytes`` call.  The list-of-bools view the original model exposed is
still available through :attr:`truth_table` for callers that want it.
"""

from __future__ import annotations

from typing import List, Sequence


class LookUpTable:
    """A k-input LUT with an explicit truth table.

    The truth table is indexed by the integer formed from the inputs
    (input 0 is the least significant bit) and stored packed into one int.
    """

    __slots__ = ("inputs", "size", "_tt")

    def __init__(self, inputs: int, truth_table: Sequence[bool] | int = 0) -> None:
        if inputs <= 0:
            raise ValueError("a LUT needs at least one input")
        if inputs > 8:
            raise ValueError("LUTs wider than 8 inputs are not modelled")
        self.inputs = inputs
        self.size = 1 << inputs
        if isinstance(truth_table, int):
            self._tt = truth_table & ((1 << self.size) - 1)
        else:
            table = list(truth_table)
            if len(table) != self.size:
                raise ValueError(
                    f"truth table for a {inputs}-input LUT must have {self.size} entries"
                )
            value = 0
            for index, bit in enumerate(table):
                if bit:
                    value |= 1 << index
            self._tt = value

    # -------------------------------------------------------------- queries
    def evaluate(self, input_bits: Sequence[bool]) -> bool:
        """Evaluate the LUT for the given input vector."""
        if len(input_bits) != self.inputs:
            raise ValueError(
                f"expected {self.inputs} input bits, got {len(input_bits)}"
            )
        index = 0
        for position, bit in enumerate(input_bits):
            if bit:
                index |= 1 << position
        return (self._tt >> index) & 1 == 1

    @property
    def truth_table(self) -> List[bool]:
        tt = self._tt
        return [(tt >> index) & 1 == 1 for index in range(self.size)]

    def as_integer(self) -> int:
        """Truth table packed into an integer (bit i = output for input i)."""
        return self._tt

    def to_bytes(self) -> bytes:
        """Truth table packed little-endian, padded to whole bytes."""
        length = max(1, self.size // 8)
        return self._tt.to_bytes(length, "little")

    @classmethod
    def from_bytes(cls, inputs: int, data: bytes) -> "LookUpTable":
        """Inverse of :meth:`to_bytes`."""
        return cls(inputs, int.from_bytes(data, "little"))

    # ------------------------------------------------------------- builders
    @classmethod
    def constant(cls, inputs: int, value: bool) -> "LookUpTable":
        return cls(inputs, (1 << (1 << inputs)) - 1 if value else 0)

    @classmethod
    def from_function(cls, inputs: int, function) -> "LookUpTable":
        """Build a LUT by evaluating *function(bits)* over every input vector.

        >>> lut = LookUpTable.from_function(2, lambda bits: bits[0] ^ bits[1])
        >>> lut.evaluate([True, False])
        True
        """
        value = 0
        for index in range(1 << inputs):
            bits = [(index >> position) & 1 == 1 for position in range(inputs)]
            if function(bits):
                value |= 1 << index
        return cls(inputs, value)

    @classmethod
    def passthrough(cls, inputs: int, which: int = 0) -> "LookUpTable":
        """A LUT that copies input *which* to its output."""
        if not 0 <= which < inputs:
            raise ValueError("passthrough input index out of range")
        return cls.from_function(inputs, lambda bits: bits[which])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LookUpTable):
            return NotImplemented
        return self.inputs == other.inputs and self._tt == other._tt

    def __hash__(self) -> int:
        return hash((self.inputs, self._tt))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LookUpTable(inputs={self.inputs}, table=0x{self._tt:x})"
