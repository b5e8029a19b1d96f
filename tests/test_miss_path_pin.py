"""Pins of the paper's miss path (ROM → decompress → configuration port → execute).

Every simulated time, every port counter, the device readback and each
frame's stored check word; none may move for a simulator-only change.  The
counters, readback and check words were recorded at the parent of PR 13
(object-backed frames); the three times were re-pinned once, as ints, when
time became whole nanoseconds (docs/rebaseline-int-ns.md: ``clock_now``
61231315.15 -> 61231669, ``busy_time_ns`` unchanged in value).
"""

import hashlib

from repro.bitstream.crc import crc32
from repro.bitstream.format import build_bitstream
from repro.core.builder import build_host_driver
from repro.core.config import CoprocessorConfig
from repro.faults import GoldenImageStore
from repro.faults.scrubber import Scrubber
from repro.fpga.device import FPGADevice
from repro.fpga.frame import FrameRegion
from repro.fpga.geometry import FabricGeometry
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


def _observe_churn() -> dict:
    """300 Zipf-0.8 calls on the 64-frame card_reconfig_churn card, seed 11."""
    bank = build_default_bank()
    bank = bank.subset([name for name in bank.names() if name != "matmul8"])
    config = CoprocessorConfig(
        fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8, codec_name="lz77", seed=11
    )
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
        "stored_crcs": [frame.stored_crc for frame in device.memory.frames],
    }


def test_miss_path_is_bit_identical_to_the_object_backed_parent():
    assert _observe_churn() == PINNED


class _Echo:
    def run(self, input_bytes):
        return input_bytes, 1


def test_non_canonical_write_is_detected_and_scrubbed_to_golden():
    # 4 LUTs per CLB leave the upper nibble of every FF byte as padding.
    geometry = FabricGeometry(columns=1, rows=4, clb_rows_per_frame=4, luts_per_clb=4)
    device = FPGADevice(geometry)
    device.golden = GoldenImageStore(geometry.frame_config_bytes)
    scrubber = Scrubber(device, device.golden)
    address = geometry.frame_at(0)
    ff_offset = geometry.luts_per_clb * geometry.lut_truth_table_bytes
    written = bytearray(b"\x5a" * geometry.frame_config_bytes)
    written[ff_offset] = 0xF3
    written = bytes(written)
    canonical = bytearray(written)
    for clb in range(geometry.clbs_per_frame):
        canonical[clb * geometry.clb_config_bytes + ff_offset] &= 0x0F
    canonical = bytes(canonical)
    assert canonical != written

    bitstream = build_bitstream(7, "echo", [written], input_bytes=1, output_bytes=1)
    device.configure_partial(bitstream, FrameRegion((address,)), _Echo())
    frame = device.memory.frames[address]
    # The check word covers the bytes as written, readback is canonical, so
    # the frame reads as corrupt until the scrubber rewrites the golden image.
    assert frame.stored_crc == crc32(written)
    assert device.memory.read_frame(address) == canonical
    assert device.golden.payload_for(address) == canonical
    assert not frame.crc_ok

    assert scrubber.scrub_frame(address) is True
    assert scrubber.stats.corrected == 1 and scrubber.stats.uncorrectable == 0
    assert frame.crc_ok
    assert frame.stored_crc == crc32(canonical)
    assert device.memory.read_frame(address) == canonical
    assert device.memory.owner_of(address) == "echo"
