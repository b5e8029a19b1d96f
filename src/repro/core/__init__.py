"""The agile algorithm-on-demand co-processor (the paper's contribution).

This package assembles the substrates — FPGA fabric, ROM/RAM, PCI,
microcontroller + mini OS, function bank — into the card the paper describes,
and provides the host-side driver and the trace runner the experiments use.
"""

from repro.core.config import CoprocessorConfig
from repro.core.coprocessor import AgileCoprocessor, ExecutionResult
from repro.core.card import CoprocessorCard
from repro.core.host import HostCallResult, HostDriver
from repro.core.stats import CoprocessorStatistics
from repro.core.ondemand import TraceResult, TraceRunner
from repro.core.builder import build_coprocessor
from repro.core.exceptions import CoprocessorError, UnknownFunctionError

__all__ = [
    "CoprocessorConfig",
    "AgileCoprocessor",
    "ExecutionResult",
    "CoprocessorCard",
    "HostDriver",
    "HostCallResult",
    "CoprocessorStatistics",
    "TraceRunner",
    "TraceResult",
    "build_coprocessor",
    "CoprocessorError",
    "UnknownFunctionError",
]
