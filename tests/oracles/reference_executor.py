"""The seed's dict-walking netlist evaluator, moved here unchanged from
``repro.fpga.executor`` when its last non-test consumer (the perf harness's
speedup timing) went.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.fpga.errors import ExecutionError
from repro.fpga.executor import bits_to_bytes, bytes_to_bits
from repro.fpga.netlist import Netlist


class ReferenceNetlistExecutor:
    """Cycle-by-cycle evaluation of a mapped netlist, one dict lookup per net.

    This is the original (unoptimised) evaluator, the oracle the compiled
    :class:`~repro.fpga.executor.NetlistExecutor` is equivalence-tested
    against (``tests/test_executor_equivalence.py``).
    """

    def __init__(self, netlist: Netlist, cycles: int = 1) -> None:
        if cycles < 1:
            raise ValueError("a netlist executes for at least one cycle")
        netlist.validate()
        self.netlist = netlist
        self.cycles = cycles
        self._order = netlist.topological_lut_order()
        self._state: Dict[str, bool] = {
            cell.output_net: False for cell in netlist.flip_flop_cells if cell.output_net
        }

    @property
    def input_bits(self) -> int:
        return len(self.netlist.inputs)

    @property
    def output_bits(self) -> int:
        return len(self.netlist.outputs)

    def reset(self) -> None:
        """Clear all flip-flop state."""
        for key in self._state:
            self._state[key] = False

    def _evaluate_once(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        values: Dict[str, bool] = dict(self._state)
        values.update(input_values)
        for cell in self._order:
            assert cell.lut is not None and cell.output_net is not None
            inputs = [values.get(source, False) for source in cell.fanin]
            values[cell.output_net] = cell.lut.evaluate(inputs)
        return values

    def step(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Advance one clock cycle; returns the net values after the cycle."""
        values = self._evaluate_once(input_values)
        for cell in self.netlist.flip_flop_cells:
            assert cell.output_net is not None
            data_net = cell.fanin[0]
            self._state[cell.output_net] = values.get(data_net, False)
        return values

    def run(self, input_bytes: bytes) -> Tuple[bytes, int]:
        expected_bytes = (self.input_bits + 7) // 8
        if len(input_bytes) != expected_bytes:
            raise ExecutionError(
                f"netlist {self.netlist.name!r} expects {expected_bytes} input bytes, "
                f"got {len(input_bytes)}"
            )
        self.reset()
        input_bits = bytes_to_bits(input_bytes, self.input_bits)
        input_values = dict(zip(self.netlist.inputs, input_bits))
        values: Dict[str, bool] = {}
        for _ in range(self.cycles):
            values = self.step(input_values)
        output_bits = [values.get(net, False) for net in self.netlist.outputs]
        return bits_to_bytes(output_bits), self.cycles
