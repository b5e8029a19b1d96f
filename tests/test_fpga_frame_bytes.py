"""The byte-backed frame's upsets against the object model they replaced.

A :class:`Frame` flips bits of its byte image in place; the object model it
replaced parsed the touched CLBs back into CLB/LUT objects and re-serialised
them.  :func:`reference_inject_upset` is that behaviour, kept here (not in
``src/``) through the CLB-layout reader ``tests/oracles/clb_layout.py``, and
the two are compared over every frame height from one to four CLBs.  That
every write is stored as written is ``tests/test_clb_layout.py``'s pin.
"""

from hypothesis import given
from hypothesis import strategies as st

from oracles.clb_layout import CLB_BYTES, load_clb
from repro.bitstream.crc import crc32
from repro.fpga.clb import ConfigurableLogicBlock
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.geometry import FabricGeometry


def reference_inject_upset(before, bit_index):
    """The object-backed ``Frame.inject_upset``: flip, re-parse the touched CLB."""
    position = bit_index % (len(before) * 8)
    data = bytearray(before)
    data[position >> 3] ^= 1 << (position & 7)
    index = (position >> 3) // CLB_BYTES
    clb = ConfigurableLogicBlock()
    load_clb(clb, bytes(data[index * CLB_BYTES : (index + 1) * CLB_BYTES]))
    data[index * CLB_BYTES : (index + 1) * CLB_BYTES] = clb.to_config_bytes()
    return bytes(data)


@st.composite
def frames_with_bytes(draw):
    clbs = draw(st.integers(min_value=1, max_value=4))
    # One frame covering the whole single column.
    geometry = FabricGeometry(columns=1, rows=clbs, clb_rows_per_frame=clbs)
    length = geometry.frame_config_bytes
    data = draw(
        st.one_of(
            st.binary(min_size=length, max_size=length),
            st.just(b"\xff" * length),
        )
    )
    return geometry, data


@given(frames_with_bytes(), st.integers(min_value=0, max_value=1 << 14))
def test_inject_upset_matches_the_per_clb_reparse(case, bit_index):
    geometry, data = case
    memory = ConfigurationMemory(geometry)
    frame = memory.frames[geometry.all_frames()[0]]
    memory.write_region([frame.address], [data], [crc32(data)])
    before = frame.to_config_bytes()
    stored = frame.stored_crc
    expected_after = reference_inject_upset(before, bit_index)
    assert expected_after != before  # every bit is a configuration cell
    frame.inject_upset(bit_index)
    assert frame.to_config_bytes() == expected_after
    assert frame.stored_crc == stored
    assert frame.crc_ok == (crc32(expected_after) == stored)
