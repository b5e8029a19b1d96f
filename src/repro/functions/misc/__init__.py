"""Miscellaneous hardware functions: CRC, sorting, string matching, and the
small netlist-backed functions the fabric genuinely evaluates gate by gate."""

from repro.functions.misc.crc import Crc32Function
from repro.functions.misc.sort import BitonicSortFunction
from repro.functions.misc.strmatch import StringMatchFunction, count_occurrences
from repro.functions.misc.logic import AdderFunction, ParityFunction, PopcountFunction

__all__ = [
    "Crc32Function",
    "BitonicSortFunction",
    "StringMatchFunction",
    "count_occurrences",
    "ParityFunction",
    "AdderFunction",
    "PopcountFunction",
]
