"""The bitonic network run compare-exchange by compare-exchange: the output
reference ``BitonicSortFunction.behaviour``'s per-block ``sorted`` is held
equal to (``tests/test_functions_dsp_misc.py``)."""

from __future__ import annotations

from typing import List, Sequence


def bitonic_sort(values: Sequence[int]) -> List[int]:
    """Sort by explicitly running the bitonic network (length = power of two)."""
    length = len(values)
    if length == 0:
        return []
    if length & (length - 1):
        raise ValueError("bitonic networks need a power-of-two input length")
    data = list(values)
    k = 2
    while k <= length:
        j = k // 2
        while j > 0:
            for i in range(length):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    if (data[i] > data[partner]) == ascending:
                        data[i], data[partner] = data[partner], data[i]
            j //= 2
        k *= 2
    return data
