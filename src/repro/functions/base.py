"""Base classes for hardware functions."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.fpga.executor import BehaviouralExecutor, CycleModel, FunctionExecutor, NetlistExecutor
from repro.fpga.geometry import FabricGeometry
from repro.fpga.netlist import Netlist


class FunctionCategory(enum.Enum):
    """Broad domain of a hardware function (used in reports and workloads)."""

    CRYPTO = "crypto"
    HASH = "hash"
    DSP = "dsp"
    ARITHMETIC = "arithmetic"
    MISC = "misc"


@dataclass(frozen=True)
class FunctionSpec:
    """Static description of one hardware function.

    ``input_bytes`` / ``output_bytes`` are the *nominal* per-invocation sizes
    recorded in the ROM record table (the paper's "input/output size of the
    functions"); behaviours that accept variable-length inputs treat the
    nominal size as their natural block size.
    """

    name: str
    function_id: int
    description: str
    category: FunctionCategory
    input_bytes: int
    output_bytes: int
    lut_estimate: int
    cycle_model: CycleModel = field(default_factory=CycleModel)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a function needs a name")
        if len(self.name) > 16:
            raise ValueError("function names are limited to 16 characters (ROM record field)")
        if self.input_bytes <= 0 or self.output_bytes <= 0:
            raise ValueError("nominal I/O sizes must be positive")
        if self.lut_estimate <= 0:
            raise ValueError("the LUT estimate must be positive")


class HardwareFunction(abc.ABC):
    """One algorithm the co-processor can realise on its fabric.

    Netlist construction, executor compilation and frame sizing are memoised
    per geometry: the microcontroller asks for all three on *every* on-demand
    request, and rebuilding (and re-compiling) a netlist per miss dominated
    the reconfiguration pipeline.  A netlist/executor is deterministic in
    (function, geometry), and an executor keeps no state between ``run``
    calls, so reuse is observationally identical.
    """

    def __init__(self, spec: FunctionSpec) -> None:
        self.spec = spec
        self._netlist_cache: dict = {}
        self._executor_cache: dict = {}
        self._frames_cache: dict = {}

    # ------------------------------------------------------------ behaviour
    @abc.abstractmethod
    def behaviour(self, data: bytes) -> bytes:
        """Reference model: what the hardware computes for *data*."""

    def reference(self, data: bytes) -> bytes:
        """Alias used by tests/baselines: the software oracle."""
        return self.behaviour(data)

    # --------------------------------------------------------------- mapping
    def build_netlist(self, geometry: FabricGeometry) -> Optional[Netlist]:
        """Return a real technology-mapped netlist, or ``None``.

        Functions returning ``None`` use synthetic frame generation sized by
        ``spec.lut_estimate``; functions returning a netlist are genuinely
        evaluated on the fabric by :class:`~repro.fpga.executor.NetlistExecutor`.
        """
        return None

    def cached_netlist(self, geometry: FabricGeometry) -> Optional[Netlist]:
        """Memoised :meth:`build_netlist` (one netlist per geometry)."""
        if geometry not in self._netlist_cache:
            self._netlist_cache[geometry] = self.build_netlist(geometry)
        return self._netlist_cache[geometry]

    def executor(self, geometry: FabricGeometry) -> FunctionExecutor:
        """Executor bound to the fabric when this function is loaded."""
        executor = self._executor_cache.get(geometry)
        if executor is None:
            netlist = self.cached_netlist(geometry)
            if netlist is not None:
                executor = NetlistExecutor(netlist)
            else:
                executor = BehaviouralExecutor(
                    self.spec.name, self.behaviour, self.spec.cycle_model
                )
            self._executor_cache[geometry] = executor
        return executor

    # -------------------------------------------------------------- sizing
    def frames_required(self, geometry: FabricGeometry) -> int:
        """Frame footprint on *geometry* (at least one frame)."""
        frames = self._frames_cache.get(geometry)
        if frames is None:
            netlist = self.cached_netlist(geometry)
            luts = netlist.lut_count if netlist is not None else self.spec.lut_estimate
            frames = max(1, geometry.frames_needed_for_luts(luts))
            self._frames_cache[geometry] = frames
        return frames

    # ------------------------------------------------------------ reporting
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def function_id(self) -> int:
        return self.spec.function_id

    def software_cycles(self, input_length: int, slowdown: float = 20.0) -> int:
        """Estimated host-CPU cycles for the same computation.

        The host-only baseline charges the hardware cycle count multiplied by
        a per-function software *slowdown* factor: hardware implementations of
        these kernels exploit bit-level and pipeline parallelism a sequential
        CPU lacks.  The factor is configurable per experiment.
        """
        return int(self.spec.cycle_model.cycles_for(input_length) * slowdown)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.spec.name!r}, luts={self.spec.lut_estimate})"


class CallableFunction(HardwareFunction):
    """Adapter turning a plain callable into a :class:`HardwareFunction`.

    Handy in tests and examples:

    >>> from repro.fpga.executor import CycleModel
    >>> spec = FunctionSpec("upper", 99, "uppercase", FunctionCategory.MISC, 8, 8, 32)
    >>> function = CallableFunction(spec, lambda data: data.upper())
    >>> function.behaviour(b"abc")
    b'ABC'
    """

    def __init__(
        self,
        spec: FunctionSpec,
        callable_behaviour: Callable[[bytes], bytes],
        netlist_builder: Optional[Callable[[FabricGeometry], Netlist]] = None,
    ) -> None:
        super().__init__(spec)
        self._callable = callable_behaviour
        self._netlist_builder = netlist_builder

    def behaviour(self, data: bytes) -> bytes:
        return self._callable(data)

    def build_netlist(self, geometry: FabricGeometry) -> Optional[Netlist]:
        if self._netlist_builder is None:
            return None
        return self._netlist_builder(geometry)
