"""The bank of hardware functions the co-processor can load on demand.

Each function provides three things:

* a **behaviour** (what the hardware computes — AES, DES, SHA, FFT, ... —
  in Python or, for SHA and CRC, the standard library; where a model was made
  fast, the seed's from-scratch form is a test oracle under
  ``tests/oracles/`` it is held bit-identical to),
* a **resource estimate** (LUT count → frame footprint) and a **cycle model**
  (how long the hardware implementation takes per invocation), and
* a way to produce its **configuration bit-stream**: small functions carry a
  real technology-mapped netlist that the fabric genuinely evaluates; large
  functions synthesise a realistic frame image matching their resource
  estimate.

The default bank built by :func:`repro.functions.bank.build_default_bank`
contains the mix of cryptographic and DSP kernels that motivated
algorithm-agile co-processors (the paper's references [1] and [2] are both
cryptographic engines).
"""

from repro.functions.base import FunctionSpec, HardwareFunction
from repro.functions.bank import FunctionBank, build_default_bank, build_small_bank

__all__ = [
    "FunctionSpec",
    "HardwareFunction",
    "FunctionBank",
    "build_default_bank",
    "build_small_bank",
]
