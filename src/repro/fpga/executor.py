"""Execution of logic loaded on the fabric.

Two executor kinds implement the same small protocol (``run(input_bytes) ->
(output_bytes, cycles)``):

* :class:`NetlistExecutor` genuinely evaluates a placed combinational netlist
  LUT by LUT.  It is used for the functions whose netlists are real (CRC,
  parity, adders) and by the tests that prove configuration bytes on the
  fabric correspond to working logic.  Construction *compiles* the netlist:
  nets are numbered into slots of a flat values array and the topological
  order is flattened into one generated Python function of shift-and-mask LUT
  evaluations, so no per-LUT ``evaluate`` call remains on the hot path.
* :class:`BehaviouralExecutor` wraps a Python reference model plus an explicit
  cycle-count model.  It is used for the large functions (AES, FFT, ...) whose
  gate-level mapping is out of scope but whose *timing footprint* — cycles as
  a function of input size — is what the co-processor experiments need.

The original net-by-net dictionary evaluator lives on as a test oracle
(``tests/oracles/reference_executor.py``); the equivalence test suite runs
randomized netlists through both and asserts identical ``(output_bytes,
cycles)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.fpga.errors import ExecutionError
from repro.fpga.netlist import Netlist


class FunctionExecutor(Protocol):
    """Anything the device can invoke once a function is loaded."""

    def run(self, input_bytes: bytes) -> Tuple[bytes, int]:
        """Execute on *input_bytes*; returns (output_bytes, fabric_cycles)."""
        ...


def _compile_eval(
    name: str, ops: Sequence[Tuple[int, Tuple[int, ...], int]]
) -> Callable[[List[int]], None]:
    """Generate one flat function evaluating every LUT op over a values list.

    Each op ``(truth_table_int, fanin_slots, out_slot)`` becomes a single
    ``v[out] = (tt >> index) & 1`` statement with the index expression inlined,
    so a whole combinational pass is one function call with no interpretation
    of per-cell metadata.  The code is compiled under the netlist's *name*, so
    a profiler keeps each netlist's evaluator on a row of its own.
    """
    lines = ["def _eval(v):"]
    if not ops:
        lines.append("    pass")
    for truth_table, fanin, out_slot in ops:
        parts = []
        for position, slot in enumerate(fanin):
            parts.append(f"v[{slot}]" if position == 0 else f"(v[{slot}]<<{position})")
        lines.append(f"    v[{out_slot}] = ({truth_table} >> ({'|'.join(parts)})) & 1")
    namespace: Dict[str, object] = {}
    exec(compile("\n".join(lines), f"<netlist-eval:{name}>", "exec"), namespace)
    return namespace["_eval"]  # type: ignore[return-value]


class NetlistExecutor:
    """Compiled single-cycle evaluation of a mapped combinational netlist.

    Each call to :meth:`run` applies the input bits to the primary inputs,
    evaluates the LUT network once in topological order and samples the
    primary outputs; it charges one fabric cycle.  Output bytes are
    bit-identical to the dict-walking oracle
    (``tests/oracles/reference_executor.py``).
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        slot_of: Dict[str, int] = {}

        def slot(net: str) -> int:
            index = slot_of.get(net)
            if index is None:
                index = len(slot_of)
                slot_of[net] = index
            return index

        self._input_slots = tuple(slot(net) for net in netlist.inputs)
        ops = []
        for cell in netlist.topological_lut_order():
            assert cell.lut is not None and cell.output_net is not None
            out_slot = slot(cell.output_net)
            ops.append(
                (cell.lut.as_integer(), tuple(slot(source) for source in cell.fanin), out_slot)
            )
        self._output_slots = tuple(slot(net) for net in netlist.outputs)
        self._input_bytes = (len(self._input_slots) + 7) // 8
        self._output_bytes = (len(self._output_slots) + 7) // 8
        self._zeros = [0] * len(slot_of)
        self._eval = _compile_eval(netlist.name, ops)

    def run(self, input_bytes: bytes) -> Tuple[bytes, int]:
        if len(input_bytes) != self._input_bytes:
            raise ExecutionError(
                f"netlist {self.netlist.name!r} expects {self._input_bytes} input bytes, "
                f"got {len(input_bytes)}"
            )
        values = self._zeros[:]
        input_word = int.from_bytes(input_bytes, "little")
        for position, input_slot in enumerate(self._input_slots):
            values[input_slot] = (input_word >> position) & 1
        self._eval(values)
        output_word = 0
        for position, out_slot in enumerate(self._output_slots):
            if values[out_slot]:
                output_word |= 1 << position
        return output_word.to_bytes(self._output_bytes, "little"), 1


@dataclass
class CycleModel:
    """Cycles a behavioural function charges: ``base + per_byte * input_len``.

    ``pipeline_depth`` adds a fixed fill latency on the first block of a
    batch; batched calls amortise it, which is what E5 measures.
    """

    base_cycles: int = 16
    cycles_per_byte: float = 1.0
    pipeline_depth: int = 0

    def cycles_for(self, input_length: int) -> int:
        return int(self.base_cycles + self.pipeline_depth + self.cycles_per_byte * input_length)


class BehaviouralExecutor:
    """Reference-model execution with an explicit cycle-count model."""

    def __init__(
        self,
        name: str,
        behaviour: Callable[[bytes], bytes],
        cycle_model: Optional[CycleModel] = None,
    ) -> None:
        self.name = name
        self.behaviour = behaviour
        self.cycle_model = cycle_model if cycle_model is not None else CycleModel()

    def run(self, input_bytes: bytes) -> Tuple[bytes, int]:
        output = self.behaviour(input_bytes)
        return output, self.cycle_model.cycles_for(len(input_bytes))
