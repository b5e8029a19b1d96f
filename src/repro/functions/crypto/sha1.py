"""SHA-1 (FIPS 180-4) as an on-demand hardware function.

The digest is :func:`hashlib.sha1`.  The seed's from-scratch model, one
80-round compression per 64-byte block, is
``tests/oracles/crypto_reference.py``'s ``ReferenceSha1``;
``tests/test_functions_crypto.py`` holds the two equal under hypothesis and
the reference to published and :mod:`hashlib` digests.
"""

from __future__ import annotations

import hashlib

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


class Sha1Function(HardwareFunction):
    """SHA-1 digest as an on-demand hardware function."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="sha1",
            function_id=3,
            input_bytes=64,
            output_bytes=20,
            lut_estimate=1100,
            cycle_model=CycleModel(base_cycles=82, cycles_per_byte=82.0 / 64.0, pipeline_depth=4),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        return hashlib.sha1(data).digest()
