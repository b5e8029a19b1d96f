"""Cryptographic hardware functions.

Algorithm-agile co-processors were originally motivated by cryptography (the
paper cites an algorithm-agile crypto co-processor and an adaptive IPSec
engine), so the default bank is crypto-heavy: AES-128, DES, SHA-1, SHA-256 and
RSA-style modular exponentiation.  AES, DES and modular exponentiation are
implemented here; SHA-1 and SHA-256 are :mod:`hashlib`.  Where a model was
rewritten for speed, the seed's from-scratch form is a test oracle
(``tests/oracles/crypto_reference.py``) it is held bit-identical to, and the
oracles are checked against published vectors.
"""

from repro.functions.crypto.aes import Aes128, AesFunction
from repro.functions.crypto.des import Des, DesFunction
from repro.functions.crypto.sha1 import Sha1Function
from repro.functions.crypto.sha256 import Sha256Function
from repro.functions.crypto.modexp import ModExpFunction, modular_exponentiation

__all__ = [
    "Aes128",
    "AesFunction",
    "Des",
    "DesFunction",
    "Sha1Function",
    "Sha256Function",
    "ModExpFunction",
    "modular_exponentiation",
]
