"""Exporters: a trace fingerprint and flat metrics snapshots.

Both emit deterministically — spans are sorted by (trace id, start, span
id), JSON keys are sorted — so the exported bytes for a fixed seed are
identical across processes, which is what the byte-identity regression
asserts.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from repro.obs.context import Span


def sorted_spans(spans: Iterable[Span]) -> List[Span]:
    """Canonical export order: by trace, then time, then allocation order."""
    return sorted(spans, key=lambda s: (s.trace_id, s.start_ns, s.span_id))


def metrics_snapshot_json(registry) -> str:
    """A registry snapshot as canonical JSON text (sorted keys)."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2)


def trace_fingerprint(spans: Iterable[Span], limit: Optional[int] = None) -> str:
    """A short content hash over the canonical span stream.

    Hashes every span (or the first *limit* in canonical order) plus the
    total count, so reorderings, attribute drift and silent truncation all
    change the fingerprint.  The cross-process byte-identity tests and the
    ``obs`` section of ``benchmarks/fingerprints.py`` compare these.
    """
    import hashlib

    ordered = sorted_spans(spans)
    total = len(ordered)
    if limit is not None:
        ordered = ordered[:limit]
    digest = hashlib.sha256()
    digest.update(b"count|%d" % total)
    for span in ordered:
        digest.update(
            (
                f"|{span.name}|{span.trace_id}|{span.span_id}|{span.parent_id}"
                f"|{span.start_ns}|{span.end_ns}|{sorted(span.attrs.items())!r}"
            ).encode()
        )
    return digest.hexdigest()
