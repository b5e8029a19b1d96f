"""Technology-mapped netlists.

A :class:`Netlist` is the representation a function's logic takes before it is
placed onto frames: LUT cells (with truth tables), primary inputs and outputs,
connected by nets.  Netlists are combinational: every function the bank maps
is one pass through its LUTs, so there are no flip-flop cells.  Small
functions (CRC, parity, adders) are expressed as real netlists that the fabric
genuinely evaluates; large functions (AES, FFT, ...) are expressed as
*synthetic* netlists whose size and structure match the function's resource
estimate, which is what matters to placement, bit-stream size and
reconfiguration latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fpga.lut import LookUpTable


class CellKind(enum.Enum):
    """Kinds of cells a mapped netlist may contain."""

    LUT = "lut"
    INPUT = "input"
    OUTPUT = "output"


@dataclass
class Cell:
    """One netlist cell.

    ``fanin`` lists the driving net names in input-pin order; LUT cells carry
    their truth table.
    """

    name: str
    kind: CellKind
    fanin: Tuple[str, ...] = ()
    output_net: Optional[str] = None
    lut: Optional[LookUpTable] = None

    def __post_init__(self) -> None:
        if self.kind is CellKind.LUT and self.lut is None:
            raise ValueError(f"LUT cell {self.name!r} needs a truth table")
        if self.kind is CellKind.LUT and self.output_net is None:
            raise ValueError(f"LUT cell {self.name!r} must drive a net")
        if self.kind is CellKind.INPUT and self.fanin:
            raise ValueError(f"input cell {self.name!r} cannot have fanin")


@dataclass
class Net:
    """A named signal and the cell that drives it."""

    name: str
    driver: Optional[str] = None


class Netlist:
    """A mapped design: cells + nets + primary I/O ordering."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self.nets: Dict[str, Net] = {}
        self.inputs: List[str] = []   # primary input net names, bit order
        self.outputs: List[str] = []  # primary output net names, bit order

    # ------------------------------------------------------------- building
    def add_input(self, net_name: str) -> str:
        """Declare a primary input; returns the net name."""
        if net_name in self.nets:
            raise ValueError(f"net {net_name!r} already exists")
        cell_name = f"in:{net_name}"
        self.cells[cell_name] = Cell(cell_name, CellKind.INPUT, output_net=net_name)
        self.nets[net_name] = Net(net_name, driver=cell_name)
        self.inputs.append(net_name)
        return net_name

    def add_output(self, net_name: str) -> str:
        """Declare that an existing net is a primary output."""
        if net_name not in self.nets:
            raise ValueError(f"cannot mark unknown net {net_name!r} as an output")
        cell_name = f"out:{net_name}"
        self.cells[cell_name] = Cell(cell_name, CellKind.OUTPUT, fanin=(net_name,))
        self.outputs.append(net_name)
        return net_name

    def add_lut(
        self,
        name: str,
        lut: LookUpTable,
        fanin: Sequence[str],
        output_net: Optional[str] = None,
    ) -> str:
        """Add a LUT cell; returns the name of the net it drives."""
        if name in self.cells:
            raise ValueError(f"cell {name!r} already exists")
        if len(fanin) != lut.inputs:
            raise ValueError(
                f"cell {name!r}: truth table has {lut.inputs} inputs but fanin has {len(fanin)}"
            )
        out_net = output_net or f"n:{name}"
        if out_net in self.nets and self.nets[out_net].driver is not None:
            raise ValueError(f"net {out_net!r} already has a driver")
        cell = Cell(name, CellKind.LUT, tuple(fanin), out_net, lut)
        self.cells[name] = cell
        net = self.nets.setdefault(out_net, Net(out_net))
        net.driver = name
        for source in fanin:
            self.nets.setdefault(source, Net(source))
        return out_net

    # -------------------------------------------------------------- queries
    @property
    def lut_cells(self) -> List[Cell]:
        return [cell for cell in self.cells.values() if cell.kind is CellKind.LUT]

    @property
    def lut_count(self) -> int:
        return len(self.lut_cells)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on problems."""
        for net in self.nets.values():
            if net.driver is None and net.name not in self.inputs:
                raise ValueError(f"net {net.name!r} has no driver and is not a primary input")
        for cell in self.cells.values():
            for source in cell.fanin:
                if source not in self.nets:
                    raise ValueError(f"cell {cell.name!r} reads unknown net {source!r}")
        for net_name in self.outputs:
            if net_name not in self.nets:
                raise ValueError(f"primary output {net_name!r} is not a net")

    def topological_lut_order(self) -> List[Cell]:
        """LUT cells ordered so every fanin is computed first.

        Primary inputs are available from the start.  Raises ``ValueError``
        if the logic contains a cycle.

        The order is computed wave by wave (all cells whose fanin is satisfied,
        sorted by name, then the cells they unlock) with a single pass over the
        fanin edges, which keeps large netlists linear instead of rescanning
        every remaining cell per wave.  The resulting order is identical to the
        original quadratic scan.
        """
        available: Set[str] = set(self.inputs)
        lut_cells = self.lut_cells
        pending: Dict[str, int] = {}
        dependents: Dict[str, List[Cell]] = {}
        wave: List[Cell] = []
        for cell in lut_cells:
            unsatisfied = 0
            for source in cell.fanin:
                if source not in available:
                    unsatisfied += 1
                    dependents.setdefault(source, []).append(cell)
            if unsatisfied:
                pending[cell.name] = unsatisfied
            else:
                wave.append(cell)
        ordered: List[Cell] = []
        while wave:
            wave.sort(key=lambda c: c.name)
            next_wave: List[Cell] = []
            for cell in wave:
                ordered.append(cell)
                assert cell.output_net is not None
                for dependent in dependents.get(cell.output_net, ()):
                    remaining_inputs = pending[dependent.name] - 1
                    pending[dependent.name] = remaining_inputs
                    if remaining_inputs == 0:
                        next_wave.append(dependent)
            wave = next_wave
        if len(ordered) != len(lut_cells):
            stuck = sorted(name for name, count in pending.items() if count > 0)
            raise ValueError(
                f"netlist {self.name!r} has a combinational cycle involving "
                f"{stuck[:4]}"
            )
        return ordered

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Netlist({self.name!r}, luts={self.lut_count}, "
            f"inputs={len(self.inputs)}, outputs={len(self.outputs)})"
        )
