"""The function bank: the set of algorithms downloadable to the co-processor."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.functions.base import HardwareFunction
from repro.functions.crypto.aes import AesFunction
from repro.functions.crypto.des import DesFunction
from repro.functions.crypto.modexp import ModExpFunction
from repro.functions.crypto.sha1 import Sha1Function
from repro.functions.crypto.sha256 import Sha256Function
from repro.functions.dsp.fft import FftFunction
from repro.functions.dsp.fir import FirFunction
from repro.functions.dsp.matmul import MatMulFunction
from repro.functions.misc.crc import Crc32Function
from repro.functions.misc.logic import AdderFunction, ParityFunction, PopcountFunction
from repro.functions.misc.sort import BitonicSortFunction
from repro.functions.misc.strmatch import StringMatchFunction


class FunctionBank:
    """An ordered, name- and id-addressable collection of hardware functions."""

    def __init__(self, functions: Optional[Sequence[HardwareFunction]] = None) -> None:
        self._functions: List[HardwareFunction] = []
        self._by_name: Dict[str, HardwareFunction] = {}
        self._by_id: Dict[int, HardwareFunction] = {}
        for function in functions or []:
            self.add(function)

    def add(self, function: HardwareFunction) -> HardwareFunction:
        """Add a function; names and ids must be unique within the bank."""
        if function.name in self._by_name:
            raise ValueError(f"the bank already has a function named {function.name!r}")
        if function.function_id in self._by_id:
            raise ValueError(f"the bank already has a function with id {function.function_id}")
        self._functions.append(function)
        self._by_name[function.name] = function
        self._by_id[function.function_id] = function
        return function

    # --------------------------------------------------------------- lookup
    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self) -> Iterator[HardwareFunction]:
        return iter(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def by_name(self, name: str) -> HardwareFunction:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name))
            raise KeyError(f"no function named {name!r} in the bank (known: {known})") from None

    def by_id(self, function_id: int) -> HardwareFunction:
        try:
            return self._by_id[function_id]
        except KeyError:
            raise KeyError(f"no function with id {function_id} in the bank") from None

    def names(self) -> List[str]:
        return [function.name for function in self._functions]

    def subset(self, names: Sequence[str]) -> "FunctionBank":
        """A new bank containing only *names* (in the given order).

        The subset shares the parent's function objects, so per-geometry
        netlist/executor memoisation carries over.
        """
        return FunctionBank([self.by_name(name) for name in names])


def build_default_bank() -> FunctionBank:
    """The full 14-function bank used by the examples and benchmarks.

    The mix follows the application space the paper and its references target:
    symmetric and public-key cryptography, hashing, DSP kernels and generic
    acceleration primitives, plus three small netlist-backed functions that
    exercise true gate-level evaluation on the fabric.
    """
    return FunctionBank(
        [
            AesFunction(),
            DesFunction(),
            Sha1Function(),
            Sha256Function(),
            ModExpFunction(),
            FirFunction(),
            FftFunction(),
            MatMulFunction(),
            Crc32Function(),
            BitonicSortFunction(),
            StringMatchFunction(),
            ParityFunction(),
            AdderFunction(),
            PopcountFunction(),
        ]
    )


def build_small_bank() -> FunctionBank:
    """A small bank (cheap bit-streams) for unit tests and quick experiments."""
    return FunctionBank(
        [
            Crc32Function(),
            ParityFunction(),
            AdderFunction(),
            PopcountFunction(),
        ]
    )
