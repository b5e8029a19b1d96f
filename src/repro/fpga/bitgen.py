"""Bit-stream generation from a placed netlist.

``BitstreamGenerator`` renders each frame of a placement to configuration
bytes (through scratch CLB objects, the layout definition, so generation
never touches a live device) and assembles them into the relocatable
packetised :class:`~repro.bitstream.format.Bitstream`.

Rendering and compression are memoised process-wide in
:class:`BitstreamCache`: every experiment that rebuilds a card (and every
baseline engine wrapping one) regenerates the same function images, so the
bytes are produced once per distinct (netlist, placement, codec) and reused —
the cached bytes are exactly the ones a fresh render would produce.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.bitstream.format import Bitstream, build_bitstream
from repro.fpga.clb import ConfigurableLogicBlock
from repro.fpga.frame import blank_clbs, encode_clbs
from repro.fpga.geometry import LUT_INPUTS, SWITCH_BYTES_PER_CLB, FabricGeometry, FrameAddress
from repro.fpga.lut import LookUpTable
from repro.fpga.netlist import Netlist
from repro.fpga.placer import Placement
from repro.sim.rand import SeededRandom


def _stable_hash(text: str) -> int:
    """Deterministic 32-bit FNV-1a hash (``hash()`` is salted per process)."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value


#: Entries a :class:`BitstreamCache` keeps before evicting the least recent.
MAX_ENTRIES = 1024


class BitstreamCache:
    """Process-wide memoisation of rendered frames and compressed images.

    Keys capture every input that can influence the produced bytes, so a hit
    is byte-identical to a fresh computation by construction.  A bounded LRU
    keeps long parameter sweeps from growing memory without limit.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple, compute):
        """Return the cached value for *key*, computing (and storing) on miss."""
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        entries[key] = value
        if len(entries) > MAX_ENTRIES:
            entries.popitem(last=False)
        return value

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


#: Shared cache instance used by every generator / card in the process.
_CACHE = BitstreamCache()


def bitstream_cache() -> BitstreamCache:
    """The process-wide :class:`BitstreamCache` singleton."""
    return _CACHE


def _placement_render_key(
    geometry: FabricGeometry, netlist: Netlist, placement: Placement
) -> tuple:
    """Everything frame rendering reads, flattened into a hashable key.

    Per frame, rendering consumes each placed cell's site within the frame,
    its truth table and its fanin net names (hashed into switch bytes), in
    ``cells_in_frame`` iteration order — switch-byte positions can collide, so
    the order is part of the key.  The frame's absolute address does not
    influence its payload bytes.
    """
    frames = []
    for address in placement.region:
        cells = []
        for cell_name in placement.cells_in_frame(address):
            site = placement.sites[cell_name]
            cell = netlist.cells[cell_name]
            if cell.lut is None:
                continue
            cells.append((site.clb_index, site.lut_index, cell.lut.as_integer(), cell.fanin))
        frames.append(tuple(cells))
    return (geometry, tuple(frames))


class BitstreamGenerator:
    """Turns placements into configuration bit-streams."""

    def __init__(self, geometry: FabricGeometry) -> None:
        self.geometry = geometry
        self.cache = _CACHE

    # ----------------------------------------------------------- rendering
    def render_frames(self, netlist: Netlist, placement: Placement) -> List[bytes]:
        """Per-frame configuration payloads, in the placement's region order."""
        key = ("render",) + _placement_render_key(self.geometry, netlist, placement)
        return list(self.cache.lookup(key, lambda: tuple(self._render_frames(netlist, placement))))

    def _render_frames(self, netlist: Netlist, placement: Placement) -> List[bytes]:
        frame_payloads: List[bytes] = []
        for address in placement.region:
            scratch = blank_clbs(self.geometry)
            self._render_frame(scratch, netlist, placement, address)
            frame_payloads.append(encode_clbs(scratch))
        return frame_payloads

    def _render_frame(
        self,
        scratch: List[ConfigurableLogicBlock],
        netlist: Netlist,
        placement: Placement,
        address: FrameAddress,
    ) -> None:
        for cell_name in placement.cells_in_frame(address):
            site = placement.sites[cell_name]
            cell = netlist.cells[cell_name]
            if cell.lut is None:
                continue
            clb = scratch[site.clb_index]
            clb.luts[site.lut_index] = cell.lut
            # Model the routing cost of the cell's fanin as switch-box bytes:
            # one byte per fanin pin, placed deterministically so identical
            # logic renders to identical (and therefore compressible) bytes.
            for pin, source in enumerate(cell.fanin):
                position = (site.lut_index * LUT_INPUTS + pin) % SWITCH_BYTES_PER_CLB
                clb.switch_box.state[position] = (_stable_hash(source) & 0x3F) | 0x40

    # ------------------------------------------------------------ assembly
    def generate(
        self,
        netlist: Netlist,
        placement: Placement,
        function_id: int,
        input_bytes: int,
        output_bytes: int,
    ) -> Bitstream:
        """Generate the relocatable partial bit-stream for *placement*."""
        payloads = self.render_frames(netlist, placement)
        return build_bitstream(
            function_id=function_id,
            function_name=netlist.name,
            frame_payloads=payloads,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            lut_count=netlist.lut_count,
        )

    # ----------------------------------------------- synthetic frame payloads
    def synthetic_frames(
        self,
        frame_count: int,
        lut_count: int,
        seed: int = 0,
        density: Optional[float] = None,
    ) -> List[bytes]:
        """Generate realistic-looking frame payloads without a real netlist.

        Large behavioural functions (AES, FFT, ...) are not technology mapped
        gate by gate; their bit-streams are synthesised so that the number of
        configured LUTs matches the function's resource estimate and the byte
        statistics (sparse, repetitive across CLBs) match real frames.  The
        output is deterministic in *seed*.
        """
        if frame_count <= 0:
            raise ValueError("synthetic bit-streams need at least one frame")
        key = ("synthetic", self.geometry, frame_count, lut_count, seed, density)
        return list(
            self.cache.lookup(
                key,
                lambda: tuple(self._synthetic_frames(frame_count, lut_count, seed, density)),
            )
        )

    def _synthetic_frames(
        self,
        frame_count: int,
        lut_count: int,
        seed: int,
        density: Optional[float],
    ) -> List[bytes]:
        rng = SeededRandom(seed)
        luts_per_frame = self.geometry.luts_per_frame
        remaining_luts = min(lut_count, frame_count * luts_per_frame)
        if density is not None:
            remaining_luts = int(frame_count * luts_per_frame * max(0.0, min(1.0, density)))
        payloads: List[bytes] = []
        # A small pool of recurring "slice" patterns: real datapaths replicate
        # the same slice logic across CLBs, so every CLB uses one pattern from
        # the pool for all of its LUTs and neighbouring CLBs repeat with a
        # short period.  This inter-CLB regularity is exactly what the
        # dictionary codecs exploit (and plain RLE cannot); ``lz77ctx`` also
        # finds it across window boundaries.
        pattern_pool = [rng.integer(1, (1 << 16) - 1) for _ in range(4)]
        routing_pool = [0x40 | rng.integer(0, 0x3F) for _ in range(4)]
        for frame_index in range(frame_count):
            scratch = blank_clbs(self.geometry)
            luts_here = min(remaining_luts, luts_per_frame)
            remaining_luts -= luts_here
            placed = 0
            for clb_index, clb in enumerate(scratch):
                # Slices repeat in groups of four CLBs, as a bit-sliced
                # datapath column would.
                pool_slot = (frame_index + clb_index // 4) % len(pattern_pool)
                pattern = pattern_pool[pool_slot]
                if placed < luts_here:
                    # Structured routing: the same byte positions are driven in
                    # every CLB, with the value tied to the slice pattern.
                    for position in range(0, SWITCH_BYTES_PER_CLB, 4):
                        clb.switch_box.state[position] = routing_pool[pool_slot]
                for lut_index in range(len(clb.luts)):
                    if placed >= luts_here:
                        break
                    clb.luts[lut_index] = LookUpTable(LUT_INPUTS, pattern)
                    placed += 1
            payloads.append(encode_clbs(scratch))
        return payloads
