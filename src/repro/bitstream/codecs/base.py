"""Codec interface and registry."""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional


class CodecError(ValueError):
    """Raised when a compressed blob cannot be decoded."""


class Codec(abc.ABC):
    """A lossless byte-string compressor.

    Subclasses must define :attr:`name`, :meth:`compress` and
    :meth:`decompress`.  ``compress_window`` / ``decompress_window`` add an
    optional *previous window* context: a differential codec codes against
    it, and ``lz77ctx`` uses it as a preset dictionary.  The default
    implementations simply ignore the context, so plain codecs work
    unchanged under the windowed streaming layer.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress *data*; must be exactly invertible by :meth:`decompress`."""

    @abc.abstractmethod
    def decompress(self, blob: bytes) -> bytes:
        """Invert :meth:`compress`."""

    # ------------------------------------------------------ windowed variant
    def compress_window(self, window: bytes, previous_window: Optional[bytes] = None) -> bytes:
        """Compress one window given the previous *raw* window as context."""
        return self.compress(window)

    def decompress_window(self, blob: bytes, previous_window: Optional[bytes] = None) -> bytes:
        """Decompress one window given the previous *raw* window as context."""
        return self.decompress(blob)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r})"


class NullCodec(Codec):
    """Identity codec — stores data uncompressed.

    Used as the "no compression" baseline in the E4 experiment and as the
    default when a function's bit-stream is already dense.
    """

    name = "null"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, blob: bytes) -> bytes:
        return bytes(blob)


_REGISTRY: Dict[str, Callable[[], Codec]] = {}


def register_codec(name: str, factory: Callable[[], Codec]) -> None:
    """Register a codec constructor under *name* (overwrites silently)."""
    _REGISTRY[name] = factory


def get_codec(name: str) -> Codec:
    """Instantiate a codec by registry name.

    Raises :class:`KeyError` with the list of known codecs when unknown.
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown codec {name!r}; known codecs: {known}") from None


def available_codecs() -> List[str]:
    """Sorted names of every registered codec."""
    return sorted(_REGISTRY)


register_codec(NullCodec.name, NullCodec)
