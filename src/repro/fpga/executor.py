"""Execution of logic loaded on the fabric.

Two executor kinds implement the same small protocol (``run(input_bytes) ->
(output_bytes, cycles)``):

* :class:`NetlistExecutor` genuinely evaluates a placed netlist LUT by LUT.
  It is used for the functions whose netlists are real (CRC, parity, adders)
  and by the tests that prove configuration bytes on the fabric correspond to
  working logic.  Construction *compiles* the netlist: nets are numbered into
  slots of a flat values array, the topological order is flattened into one
  generated Python function of shift-and-mask LUT evaluations, and flip-flop
  latching becomes a slot-to-slot copy — no per-cycle dicts or per-LUT
  ``evaluate`` calls remain on the hot path.
* :class:`BehaviouralExecutor` wraps a Python reference model plus an explicit
  cycle-count model.  It is used for the large functions (AES, FFT, ...) whose
  gate-level mapping is out of scope but whose *timing footprint* — cycles as
  a function of input size — is what the co-processor experiments need.

The original cell-by-cell dictionary evaluator lives on as a test oracle
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


def _compile_eval(ops: Sequence[Tuple[int, Tuple[int, ...], int]]) -> Callable[[List[int]], None]:
    """Generate one flat function evaluating every LUT op over a values list.

    Each op ``(truth_table_int, fanin_slots, out_slot)`` becomes a single
    ``v[out] = (tt >> index) & 1`` statement with the index expression inlined,
    so a whole combinational pass is one function call with no interpretation
    of per-cell metadata.
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
    exec(compile("\n".join(lines), "<netlist-eval>", "exec"), namespace)
    return namespace["_eval"]  # type: ignore[return-value]


class NetlistExecutor:
    """Compiled cycle-by-cycle evaluation of a mapped netlist.

    Each call to :meth:`run` applies the input bits to the primary inputs,
    evaluates the combinational LUT network in topological order, clocks the
    flip-flops once per cycle for ``cycles`` cycles, and samples the primary
    outputs.  Purely combinational netlists use a single evaluation.  Output
    bytes and cycle counts are bit-identical to the dict-walking oracle
    (``tests/oracles/reference_executor.py``).
    """

    def __init__(self, netlist: Netlist, cycles: int = 1) -> None:
        if cycles < 1:
            raise ValueError("a netlist executes for at least one cycle")
        netlist.validate()
        self.netlist = netlist
        self.cycles = cycles
        self._compile()

    # ------------------------------------------------------------ compiling
    def _compile(self) -> None:
        netlist = self.netlist
        slot_of: Dict[str, int] = {}

        def slot(net: str) -> int:
            index = slot_of.get(net)
            if index is None:
                index = len(slot_of)
                slot_of[net] = index
            return index

        self._input_slots = tuple(slot(net) for net in netlist.inputs)
        flip_flops = [cell for cell in netlist.flip_flop_cells if cell.output_net]
        ops: List[Tuple[int, Tuple[int, ...], int]] = []
        lut_out_nets: List[Tuple[str, int]] = []
        for cell in netlist.topological_lut_order():
            assert cell.lut is not None and cell.output_net is not None
            out_slot = slot(cell.output_net)
            ops.append(
                (cell.lut.as_integer(), tuple(slot(source) for source in cell.fanin), out_slot)
            )
            lut_out_nets.append((cell.output_net, out_slot))
        # (q_slot, data_slot) pairs; the data net always has a driver so its
        # slot is guaranteed to be written before latching samples it.
        self._latches = tuple((slot(cell.output_net), slot(cell.fanin[0])) for cell in flip_flops)
        self._latch_nets = tuple(cell.output_net for cell in flip_flops)
        self._output_slots = tuple(slot(net) for net in netlist.outputs)
        self._lut_out_nets = tuple(lut_out_nets)
        self._slot_of = slot_of
        self._zeros = [0] * len(slot_of)
        self._eval = _compile_eval(ops)
        self._state: List[int] = [0] * len(self._latches)

    @property
    def input_bits(self) -> int:
        return len(self.netlist.inputs)

    @property
    def output_bits(self) -> int:
        return len(self.netlist.outputs)

    def reset(self) -> None:
        """Clear all flip-flop state."""
        self._state = [0] * len(self._latches)

    def step(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Advance one clock cycle; returns the net values after the cycle.

        Matches the reference evaluator: flip-flop outputs show their
        *pre-edge* value in the returned mapping, and the new state is latched
        from the data nets computed this cycle.
        """
        values = self._zeros[:]
        state = self._state
        for (q_slot, _), bit in zip(self._latches, state):
            values[q_slot] = bit
        slot_of = self._slot_of
        extra: Dict[str, bool] = {}
        for net, bit in input_values.items():
            index = slot_of.get(net)
            if index is None:
                extra[net] = bool(bit)
            else:
                values[index] = 1 if bit else 0
        self._eval(values)
        self._state = [values[data_slot] for _, data_slot in self._latches]
        result: Dict[str, bool] = {
            net: bool(bit) for net, bit in zip(self._latch_nets, state)
        }
        for net, bit in input_values.items():
            result[net] = bool(bit)
        for net, out_slot in self._lut_out_nets:
            result[net] = values[out_slot] == 1
        result.update(extra)
        return result

    def run(self, input_bytes: bytes) -> Tuple[bytes, int]:
        expected_bytes = (self.input_bits + 7) // 8
        if len(input_bytes) != expected_bytes:
            raise ExecutionError(
                f"netlist {self.netlist.name!r} expects {expected_bytes} input bytes, "
                f"got {len(input_bytes)}"
            )
        values = self._zeros[:]
        input_word = int.from_bytes(input_bytes, "little")
        for position, input_slot in enumerate(self._input_slots):
            values[input_slot] = (input_word >> position) & 1
        latches = self._latches
        evaluate = self._eval
        state = [0] * len(latches)
        if latches:
            for _ in range(self.cycles):
                for (q_slot, _), bit in zip(latches, state):
                    values[q_slot] = bit
                evaluate(values)
                state = [values[data_slot] for _, data_slot in latches]
        else:
            for _ in range(self.cycles):
                evaluate(values)
        self._state = state
        output_word = 0
        for position, out_slot in enumerate(self._output_slots):
            if values[out_slot]:
                output_word |= 1 << position
        output_bytes = output_word.to_bytes((len(self._output_slots) + 7) // 8, "little")
        return output_bytes, self.cycles


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
