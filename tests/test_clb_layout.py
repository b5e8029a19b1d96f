"""Every frame image is a CLB image: the shipped CLB has no padding bits.

The fact the configuration memory rests on: with eight 4-input LUTs (two
whole bytes of truth table each), eight flip-flop bits (one whole byte) and
whole switch-box bytes, every bit of a frame is a configuration cell.  So any
frame-length byte string decodes into CLBs that encode back to the same
bytes, and a frame stores every write exactly as written, with a check word
that matches its readback.  Nothing needs to mask a write or to tell equally
sized frames apart.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.clb_layout import CLB_BYTES, decode_clbs
from repro.bitstream.crc import crc32
from repro.core.config import SMALL_CONFIG, CoprocessorConfig
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.frame import encode_clbs
from repro.fpga.geometry import FabricGeometry

#: The shipped card, the unit-test card and every frame height E8 sweeps.
GEOMETRIES = [CoprocessorConfig().geometry(), SMALL_CONFIG.geometry()] + [
    FabricGeometry(columns=8, rows=32, clb_rows_per_frame=height) for height in (2, 4, 8, 16)
]


@st.composite
def frame_images(draw):
    geometry = draw(st.sampled_from(GEOMETRIES))
    length = geometry.frame_config_bytes
    data = draw(
        st.one_of(
            st.binary(min_size=length, max_size=length),
            st.sampled_from([b"\xff" * length, bytes(length)]),
        )
    )
    return geometry, data


def test_a_frame_is_whole_clb_images():
    for geometry in GEOMETRIES:
        assert geometry.frame_config_bytes == geometry.clbs_per_frame * CLB_BYTES


@given(frame_images())
@settings(max_examples=300)
def test_every_frame_image_survives_the_clb_round_trip(case):
    geometry, data = case
    assert encode_clbs(decode_clbs(geometry, data)) == data


@given(frame_images())
@settings(max_examples=100)
def test_a_frame_stores_every_write_as_written(case):
    geometry, data = case
    memory = ConfigurationMemory(geometry)
    frame = memory.frames[geometry.all_frames()[-1]]
    memory.write_region([frame.address], [data], [crc32(data)])
    assert frame.to_config_bytes() == data
    assert frame.stored_crc == crc32(data)
    assert frame.crc_ok
