"""The seed's dict-walking netlist evaluator, moved here from
``repro.fpga.executor`` when its last non-test consumer (the perf harness's
speedup timing) went, together with the bit-list helpers only it uses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.fpga.errors import ExecutionError
from repro.fpga.netlist import Netlist


def bytes_to_bits(data: bytes, bit_count: int) -> List[bool]:
    """Little-endian byte order, LSB-first within each byte."""
    value = int.from_bytes(data, "little")
    return [(value >> index) & 1 == 1 for index in range(bit_count)]


def bits_to_bytes(bits: Sequence[bool]) -> bytes:
    """Inverse of :func:`bytes_to_bits` (padded to whole bytes)."""
    value = 0
    for index, bit in enumerate(bits):
        if bit:
            value |= 1 << index
    return value.to_bytes((len(bits) + 7) // 8, "little")


class ReferenceNetlistExecutor:
    """One evaluation of a mapped netlist, one dict lookup per net.

    This is the original (unoptimised) evaluator, the oracle the compiled
    :class:`~repro.fpga.executor.NetlistExecutor` is equivalence-tested
    against (``tests/test_executor_equivalence.py``).
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.topological_lut_order()

    def run(self, input_bytes: bytes) -> Tuple[bytes, int]:
        input_count = len(self.netlist.inputs)
        expected_bytes = (input_count + 7) // 8
        if len(input_bytes) != expected_bytes:
            raise ExecutionError(
                f"netlist {self.netlist.name!r} expects {expected_bytes} input bytes, "
                f"got {len(input_bytes)}"
            )
        values: Dict[str, bool] = dict(
            zip(self.netlist.inputs, bytes_to_bits(input_bytes, input_count))
        )
        for cell in self._order:
            assert cell.lut is not None and cell.output_net is not None
            inputs = [values.get(source, False) for source in cell.fanin]
            values[cell.output_net] = cell.lut.evaluate(inputs)
        output_bits = [values.get(net, False) for net in self.netlist.outputs]
        return bits_to_bytes(output_bits), 1
