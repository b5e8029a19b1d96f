"""Exceptions raised by the co-processor core."""

from __future__ import annotations


class CoprocessorError(Exception):
    """Base class for errors raised by :mod:`repro.core`."""


class UnknownFunctionError(CoprocessorError, KeyError):
    """The host requested a function that is not in the downloaded bank."""
