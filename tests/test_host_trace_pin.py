"""Pin of everything the host ↔ card protocol leaves behind.

One fixed :func:`build_host_driver` script — Zipf calls over the default bank
with programmed-I/O and DMA sizes, misses, evictions and hits, then PRELOAD,
EVICT, CAPTURE / RESTORE, DEFRAG, SCRUB, RESET and three refused commands —
and the SHA-256 of the card's whole device trace (every component, in
order, with its attributes) next to the three bus counters.  A change to
how the host reaches the card that moves one simulated nanosecond, one
transaction, one address or the order of two events fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.builder import build_host_driver
from repro.core.config import CoprocessorConfig
from repro.core.exceptions import CoprocessorError
from repro.functions.bank import build_default_bank
from repro.workloads.generators import zipf_trace

TRACE_SHA256 = "5f8d31e8f1f95b4e3011f4580e1334e120b15b878bf6329776ff4227fe8dc6dd"
EVENTS = 1062
BUS_COUNTERS = (444, 9912, 182946)  # transactions, bytes, busy ns
FINAL_NS = 11259493


def run_script():
    """Drive one card through the script; returns ``(driver, events)``."""
    bank = build_default_bank()
    driver = build_host_driver(
        config=CoprocessorConfig(
            fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8, enable_trace=True, seed=3
        ),
        bank=bank,
    )
    copro = driver.coprocessor
    copro.enable_fault_protection()
    copro.enable_defrag()
    for request in zipf_trace(bank, 40, skew=0.8, seed=7):
        driver.call(request.function, request.payload)
    for request in zipf_trace(bank, 8, skew=0.8, seed=9, payload_blocks=3):
        driver.call(request.function, request.payload)
    driver.preload("fir16")
    driver.evict("aes128")
    resident = copro.loaded_functions()[0]
    blob = driver.capture_function(resident)
    driver.evict(resident)
    driver.restore_function(resident, blob)
    driver.defrag_card()
    driver.defrag_card(max_moves=1)
    driver.scrub_card()
    for refused in (
        lambda: driver.capture_function("aes128"),  # not resident
        lambda: driver.restore_function("crc32", b"\x00" * 100),  # not a blob
        lambda: driver.restore_function("sha1", blob),  # another function's blob
    ):
        with pytest.raises(CoprocessorError):
            refused()
    driver.reset_card()
    for request in zipf_trace(bank, 6, skew=0.8, seed=11):
        driver.call(request.function, request.payload)
    return driver, copro.trace.events


def digest(events) -> str:
    sha = hashlib.sha256()
    for event in events:
        attributes = sorted(event.attributes.items())
        sha.update(
            repr((event.component, event.action, event.start_ns, event.end_ns, attributes)).encode()
        )
    return sha.hexdigest()


def test_the_host_script_leaves_the_pinned_trace_and_counters():
    driver, events = run_script()
    bus = driver.bus
    assert (
        digest(events),
        len(events),
        (bus.transactions_completed, bus.bytes_transferred, bus.busy_time_ns),
        driver.clock.now,
    ) == (TRACE_SHA256, EVENTS, BUS_COUNTERS, FINAL_NS)
