"""Look-up table model.

LUTs are the unit of programmable logic inside a CLB: a ``k``-input LUT stores
``2**k`` truth-table bits and so realises any boolean function of its inputs.
The netlist executor compiles these objects to actually evaluate small mapped
designs, which is how the tests prove the fabric realises real logic rather
than merely storing bytes.

The truth table is stored as a single integer (bit ``i`` = output for input
vector ``i``), so evaluation is one shift-and-mask and serialisation is one
``int.to_bytes`` call.
"""

from __future__ import annotations


class LookUpTable:
    """A k-input LUT with an explicit truth table.

    The truth table is indexed by the integer formed from the inputs
    (input 0 is the least significant bit) and stored packed into one int.
    """

    __slots__ = ("inputs", "size", "_tt")

    def __init__(self, inputs: int, truth_table: int = 0) -> None:
        if inputs <= 0:
            raise ValueError("a LUT needs at least one input")
        if inputs > 8:
            raise ValueError("LUTs wider than 8 inputs are not modelled")
        self.inputs = inputs
        self.size = 1 << inputs
        self._tt = truth_table & ((1 << self.size) - 1)

    # -------------------------------------------------------------- queries
    def as_integer(self) -> int:
        """Truth table packed into an integer (bit i = output for input i)."""
        return self._tt

    def to_bytes(self) -> bytes:
        """Truth table packed little-endian, padded to whole bytes."""
        length = max(1, self.size // 8)
        return self._tt.to_bytes(length, "little")

    # ------------------------------------------------------------- builders
    @classmethod
    def constant(cls, inputs: int, value: bool) -> "LookUpTable":
        return cls(inputs, (1 << (1 << inputs)) - 1 if value else 0)

    @classmethod
    def from_function(cls, inputs: int, function) -> "LookUpTable":
        """Build a LUT by evaluating *function(bits)* over every input vector.

        >>> LookUpTable.from_function(2, lambda bits: bits[0] ^ bits[1]).as_integer()
        6
        """
        value = 0
        for index in range(1 << inputs):
            bits = [(index >> position) & 1 == 1 for position in range(inputs)]
            if function(bits):
                value |= 1 << index
        return cls(inputs, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LookUpTable(inputs={self.inputs}, table=0x{self._tt:x})"
