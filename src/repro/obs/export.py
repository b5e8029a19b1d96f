"""Exporters: Chrome ``trace_event`` JSON and flat metrics snapshots.

Both emit deterministically — spans are sorted by (trace id, start, span
id), JSON keys are sorted, separators fixed — so the exported bytes for a
fixed seed are identical across processes, which is what the byte-identity
regression asserts and what makes exported traces diffable artefacts.

The Chrome format (load via ``chrome://tracing`` or https://ui.perfetto.dev)
maps one trace to one "thread" row: ``pid`` is the sampled trace's ordinal,
``tid`` the trace id, and each span a complete ``"ph": "X"`` event with
microsecond timestamps (the format's native unit; nanosecond precision is
preserved as fractional microseconds).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.obs.context import Span


def sorted_spans(spans: Iterable[Span]) -> List[Span]:
    """Canonical export order: by trace, then time, then allocation order."""
    return sorted(spans, key=lambda s: (s.trace_id, s.start_ns, s.span_id))


def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Build a Chrome ``trace_event`` document from *spans*."""
    events: List[dict] = []
    ordinals: Dict[int, int] = {}
    for span in sorted_spans(spans):
        ordinal = ordinals.setdefault(span.trace_id, len(ordinals))
        args: Dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": ordinal,
                "tid": span.trace_id,
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "args": args,
            }
        )
    return {"displayTimeUnit": "ns", "traceEvents": events}


def chrome_trace_json(spans: Iterable[Span]) -> str:
    """The exported document as canonical JSON text."""
    return json.dumps(
        to_chrome_trace(spans), sort_keys=True, separators=(",", ":")
    )


def export_chrome_trace(spans: Iterable[Span], path) -> int:
    """Write the Chrome trace JSON to *path*; returns the byte count."""
    text = chrome_trace_json(spans) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(text)


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
