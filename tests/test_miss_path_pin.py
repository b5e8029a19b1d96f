"""Pins of the paper's miss path (ROM → decompress → configuration port → execute).

Every simulated time, every port counter, the device readback and each
frame's stored check word; none may move for a simulator-only change.
``test_miss_formula.py`` reproduces ``total_ns_sha`` from the formula alone.  The
counters, readback and check words were recorded at the parent of PR 13
(object-backed frames); the three times were re-pinned once, as ints, when
time became whole nanoseconds (docs/rebaseline-int-ns.md: ``clock_now``
61231315.15 -> 61231669, ``busy_time_ns`` unchanged in value).
"""

import hashlib

from repro.core.builder import build_host_driver
from repro.core.config import CoprocessorConfig
from repro.functions.bank import build_default_bank
from repro.workloads.generators import zipf_trace

PINNED = {
    "total_ns_sha": "7227b35b21e9c441fd2f9142e64cfcdbb125a272383f3ae9125209db7c26025f",
    "frames_written": 4947,
    "bytes_written": 1306008,
    "busy_time_ns": 27_703_200,
    "clock_now": 61_231_669,
    "readback_sha": "a771955622655285eb61b8c4658716a7b4ddd3cf5a12046f691c22a9ea9f7240",
    # Frames 0-31 configured, 32-63 erased.
    "stored_crcs": [3421709763, 1945865600, 2808267293, 2136239896] * 7
    + [3421709763, 1945865600, 2808267293, 519925545]
    + [174113696] * 32,
}


def _sha(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def churn_config():
    """The 64-frame card_reconfig_churn card and its 13-function bank."""
    bank = build_default_bank()
    bank = bank.subset([name for name in bank.names() if name != "matmul8"])
    config = CoprocessorConfig(
        fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8, codec_name="lz77", seed=11
    )
    return config, bank


def _observe_churn() -> dict:
    """300 Zipf-0.8 calls on the churn card, seed 11."""
    config, bank = churn_config()
    driver = build_host_driver(config=config, bank=bank)
    results = [
        driver.call(request.function, request.payload)
        for request in zipf_trace(bank, 300, skew=0.8, seed=11)
    ]
    device = driver.coprocessor.device
    return {
        "total_ns_sha": _sha(b"%d" % result.total_ns for result in results),
        "frames_written": device.port.stats.frames_written,
        "bytes_written": device.port.stats.bytes_written,
        "busy_time_ns": device.port.stats.busy_time_ns,
        "clock_now": driver.coprocessor.clock.now,
        "readback_sha": _sha(device.memory.read_frame(address) for address in device.geometry.all_frames()),
        "stored_crcs": [frame.stored_crc for frame in device.memory.frames.by_address.values()],
    }


def test_miss_path_is_bit_identical_to_the_object_backed_parent():
    assert _observe_churn() == PINNED

