"""Exceptions raised by the memory subsystem."""

from __future__ import annotations


class MemoryError_(Exception):
    """Base class for memory subsystem errors.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`MemoryError`, which means something entirely different.
    """


class RomFullError(MemoryError_):
    """The bit-stream area and the record table would collide in the ROM."""


class RomLookupError(MemoryError_, KeyError):
    """A requested function has no record in the ROM's record table."""


class RamCapacityError(MemoryError_):
    """A command's input and output buffers do not fit the local RAM."""
