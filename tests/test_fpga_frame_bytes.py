"""The byte-backed frame against its oracle, the CLB codec.

A :class:`Frame` stores bytes and canonicalises them with one precomputed
mask; the object model it replaced parsed every write into CLB/LUT objects.
The reference implementations below are that pre-PR-13 behaviour, kept here
(not in ``src/``) so the two are compared on random geometries, including
every padding case: sub-byte truth tables (``lut_inputs`` 1–2), FF bytes
with unused bits (``luts_per_clb`` not a multiple of 8) and CLBs without
switch bytes.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.bitstream.crc import crc32
from repro.fpga.frame import Frame, blank_clbs, decode_clbs
from repro.fpga.geometry import FabricGeometry


def reference_round_trip(geometry, data):
    """Canonical readback of *data*: parse into fresh CLBs, re-serialise."""
    per_clb = geometry.clb_config_bytes
    out = []
    for index, clb in enumerate(blank_clbs(geometry)):
        clb.load_config_bytes(data[index * per_clb : (index + 1) * per_clb])
        out.append(clb.to_config_bytes())
    return b"".join(out)


def reference_inject_upset(geometry, before, bit_index, bits):
    """The object-backed ``Frame.inject_upset``: flip, re-parse touched CLBs."""
    total_bits = len(before) * 8
    per_clb = geometry.clb_config_bytes
    data = bytearray(before)
    touched = set()
    for offset in range(bits):
        position = (bit_index + offset) % total_bits
        data[position >> 3] ^= 1 << (position & 7)
        touched.add((position >> 3) // per_clb)
    changed = False
    for index in sorted(touched):
        clb = blank_clbs(geometry)[0]
        clb.load_config_bytes(bytes(data[index * per_clb : (index + 1) * per_clb]))
        chunk = clb.to_config_bytes()
        data[index * per_clb : (index + 1) * per_clb] = chunk
        if chunk != before[index * per_clb : (index + 1) * per_clb]:
            changed = True
    return bytes(data), changed


@st.composite
def geometries(draw):
    clbs = draw(st.integers(min_value=1, max_value=4))
    # One frame covering the whole single column.
    return FabricGeometry(
        columns=1,
        rows=clbs,
        clb_rows_per_frame=clbs,
        luts_per_clb=draw(st.sampled_from([1, 3, 4, 7, 8, 12, 16])),
        lut_inputs=draw(st.integers(min_value=1, max_value=6)),
        switch_bytes_per_clb=draw(st.sampled_from([0, 1, 5, 16])),
    )


@st.composite
def frames_with_bytes(draw):
    geometry = draw(geometries())
    length = geometry.frame_config_bytes
    data = draw(
        st.one_of(
            st.binary(min_size=length, max_size=length),
            st.just(b"\xff" * length),
        )
    )
    return geometry, data


@given(frames_with_bytes())
def test_mask_canonicalisation_equals_the_clb_codec_round_trip(case):
    geometry, data = case
    frame = Frame(geometry, geometry.all_frames()[0])
    frame.load_config_bytes(data)
    canonical = frame.to_config_bytes()
    assert canonical == reference_round_trip(geometry, data)
    assert frame.stored_crc == crc32(data)
    assert frame.crc_ok == (crc32(canonical) == crc32(data))
    assert [clb.to_config_bytes() for clb in decode_clbs(frame.geometry, frame.to_config_bytes())] == [
        canonical[i : i + geometry.clb_config_bytes]
        for i in range(0, len(canonical), geometry.clb_config_bytes)
    ]
    # Idempotent: a canonical image is stored as written and verifies.
    frame.load_config_bytes(canonical)
    assert frame.to_config_bytes() == canonical
    assert frame.stored_crc == crc32(canonical)
    assert frame.crc_ok


@given(
    frames_with_bytes(),
    st.integers(min_value=0, max_value=1 << 14),
    st.integers(min_value=1, max_value=70),
)
def test_inject_upset_matches_the_per_clb_reparse(case, bit_index, bits):
    geometry, data = case
    frame = Frame(geometry, geometry.all_frames()[0])
    frame.load_config_bytes(data)
    before = frame.to_config_bytes()
    stored = frame.stored_crc
    expected_after, expected_changed = reference_inject_upset(geometry, before, bit_index, bits)
    assert frame.inject_upset(bit_index, bits) == expected_changed
    assert frame.to_config_bytes() == expected_after
    assert frame.stored_crc == stored
    assert frame.crc_ok == (crc32(expected_after) == stored)
