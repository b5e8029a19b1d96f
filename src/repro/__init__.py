"""repro — behavioural reproduction of the DATE 2005 paper
"FPGA based Agile Algorithm-On-Demand Co-Processor".

The package models, in pure Python, every block of the paper's architecture:

* a partially reconfigurable FPGA fabric (:mod:`repro.fpga`),
* a packetised configuration bit-stream format with a suite of compression
  codecs and windowed decompression (:mod:`repro.bitstream`),
* the ROM / local RAM memory subsystem (:mod:`repro.memory`),
* the PCI bus between host and card, as its timing and trace (:mod:`repro.pci`),
* the PCI microcontroller with its mini OS — free frame list, frame
  replacement table and replacement policies (:mod:`repro.mcu`),
* a bank of hardware functions the co-processor can load on demand
  (:mod:`repro.functions`),
* the agile co-processor itself together with the host-side driver
  (:mod:`repro.core`),
* a multi-card fleet with affinity-aware dispatch (:mod:`repro.cluster`),
* a network front door — client populations, lossy links, gateways with
  admission control, deadline-aware retrying transport (:mod:`repro.net`),
* baselines, workload generators and analysis helpers
  (:mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.analysis`).

Quickstart
----------

>>> from repro import build_coprocessor
>>> copro = build_coprocessor()
>>> result = copro.execute("crc32", b"hello world")
>>> len(result.output)
4
"""

from repro.core.config import CoprocessorConfig
from repro.core.coprocessor import AgileCoprocessor, ExecutionResult
from repro.core.host import HostDriver
from repro.core.builder import (
    build_coprocessor,
    build_fleet,
    build_frontdoor,
)

__version__ = "1.0.0"

__all__ = [
    "AgileCoprocessor",
    "CoprocessorConfig",
    "ExecutionResult",
    "HostDriver",
    "build_coprocessor",
    "build_fleet",
    "build_frontdoor",
    "__version__",
]
