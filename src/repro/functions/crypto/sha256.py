"""SHA-256 (FIPS 180-4) as an on-demand hardware function.

The digest is :func:`hashlib.sha256`.  The seed's from-scratch model, with
its round constants derived from the cube roots of the first 64 primes, is
``tests/oracles/crypto_reference.py``'s ``ReferenceSha256``;
``tests/test_functions_crypto.py`` holds the two equal under hypothesis and
the reference to published and :mod:`hashlib` digests.
"""

from __future__ import annotations

import hashlib

from repro.fpga.executor import CycleModel
from repro.functions.base import FunctionSpec, HardwareFunction


class Sha256Function(HardwareFunction):
    """SHA-256 digest as an on-demand hardware function."""

    def __init__(self) -> None:
        spec = FunctionSpec(
            name="sha256",
            function_id=4,
            input_bytes=64,
            output_bytes=32,
            lut_estimate=1500,
            cycle_model=CycleModel(base_cycles=68, cycles_per_byte=68.0 / 64.0, pipeline_depth=4),
        )
        super().__init__(spec)

    def behaviour(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()
