"""The card's timing model as one page of arithmetic.

Every simulated duration on the card is a sum of terms, each rounded to whole
nanoseconds where it is computed, so a request's time can be written down
from its inputs alone: the configuration, the compressed image the ROM
stores, the payload, and the function's output and fabric cycles.  This
module does that without running the card; tier-1 holds it equal to the
simulator (``tests/test_miss_formula.py``).

A cold reconfiguration (ROM → decompress → configuration port):

    rom        = Σ over ROM bursts b   round(100 + |b| / 0.05)             bursts of ROM_CHUNK_BYTES
    decompress = Σ over windows w      mcu(cpb · (|compressed_w| + |raw_w|) / 2)   cpb = DECOMPRESS_CYCLES_PER_BYTE
    port       = Σ over frames f       cfg(12 + ⌈|f| / port width⌉)
               + cfg(4 · max(1, frames))                                   the closing CRC check

where ``mcu(c)`` and ``cfg(c)`` turn cycles into whole nanoseconds at the
microcontroller and configuration clocks.  A serial module takes
``rom + decompress + port``; a pipelined one takes
``rom + min(decompress + port, max(decompress, port) + fill)`` with
``fill = round(decompress / windows)``.

A host call (:meth:`HostDriver.call`) adds, in order: the input's PCI
transfer, three register writes and a status read, the card's command
decode, the miss (if any), staging the input in RAM, feeding it to the
fabric, executing, collecting the output into RAM, reading it back, the
output-length register read and the output's PCI transfer.  Evicting a
victim erases its frames and costs no time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.bitstream.format import parse_bitstream
from repro.bitstream.window import CompressedImage, WindowedDecompressor
from repro.core.host import DMA_BURST_BYTES
from repro.fpga.config_port import CONFIG_CLOCK_HZ, CONFIG_PORT_WIDTH_BYTES
from repro.fpga.device import FABRIC_CLOCK_HZ
from repro.mcu.config_module import DECOMPRESS_CYCLES_PER_BYTE, ROM_CHUNK_BYTES
from repro.mcu.microcontroller import COMMAND_DECODE_CYCLES, MCU_CLOCK_HZ
from repro.pci import PCI_BUS_WIDTH_BYTES, PCI_CLOCK_HZ

#: Programmed I/O up to this many bytes; DMA above it.
PIO_THRESHOLD_BYTES = 64
#: Descriptor fetch and doorbell time of one DMA job.
DMA_SETUP_NS = 500
#: Bytes per beat of the interface bus between local RAM and fabric.
INTERFACE_BUS_WIDTH_BYTES = 4


def _ns(cycles: float, hz: float) -> int:
    return round(cycles * (1e9 / hz))


def _ceil(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def rom_ns(length: int) -> int:
    """One ROM burst: 100 ns setup, 50 MB/s."""
    return round(100 + length / 0.05) if length else 0


def ram_ns(length: int) -> int:
    """One local-RAM access: 20 ns setup, 400 MB/s."""
    return round(20 + length / 0.4) if length else 0


@dataclass(frozen=True)
class MissTerms:
    """The three phases of one cold reconfiguration, in nanoseconds."""

    rom_ns: int
    decompress_ns: int
    port_ns: int
    windows: int

    @property
    def serial_ns(self) -> int:
        return self.rom_ns + self.decompress_ns + self.port_ns

    @property
    def pipelined_ns(self) -> int:
        fill = round(self.decompress_ns / max(1, self.windows))
        return self.rom_ns + min(
            self.decompress_ns + self.port_ns, max(self.decompress_ns, self.port_ns) + fill
        )


def miss_terms(blob: bytes) -> MissTerms:
    """The formula's terms for loading the stored image *blob*."""
    image = CompressedImage.from_bytes(blob)
    raw_windows = list(WindowedDecompressor(image).windows())
    frames = parse_bitstream(b"".join(raw_windows)).frames
    chunk = ROM_CHUNK_BYTES
    rom = sum(rom_ns(min(chunk, len(blob) - offset)) for offset in range(0, len(blob), chunk))
    decompress = sum(
        _ns(DECOMPRESS_CYCLES_PER_BYTE * (len(compressed) + len(raw)) / 2.0, MCU_CLOCK_HZ)
        for compressed, raw in zip(image.windows, raw_windows)
    )
    port = sum(
        _ns(12 + _ceil(len(frame), CONFIG_PORT_WIDTH_BYTES), CONFIG_CLOCK_HZ) for frame in frames
    )
    port += _ns(4 * max(1, len(frames)), CONFIG_CLOCK_HZ)
    return MissTerms(rom, decompress, port, len(image.windows))


def pci_ns(length: int) -> int:
    """One PCI transaction: arbitration 2, address 1, wait states 3, the data
    phases and turnaround 2, in bus cycles."""
    data_phases = _ceil(length, PCI_BUS_WIDTH_BYTES)
    return round((2 + 1 + 3 + data_phases + 2) * 1e9 / PCI_CLOCK_HZ)


def host_transfer_ns(length: int) -> int:
    """Moving *length* bytes between host and card window: PIO or DMA bursts."""
    if length == 0:
        return 0
    if length <= PIO_THRESHOLD_BYTES:
        return pci_ns(length)
    return DMA_SETUP_NS + sum(
        pci_ns(min(DMA_BURST_BYTES, length - offset))
        for offset in range(0, length, DMA_BURST_BYTES)
    )


def interface_ns(length: int) -> int:
    """The interface bus between local RAM and fabric: 4 setup cycles plus
    whole beats, on the microcontroller clock."""
    return _ns(4 + _ceil(length, INTERFACE_BUS_WIDTH_BYTES), MCU_CLOCK_HZ)


def call_ns(input_bytes: int, output_bytes: int, cycles: int, miss_ns: int = 0) -> int:
    """One :meth:`HostDriver.call`, end to end."""
    host = host_transfer_ns(input_bytes) + 5 * pci_ns(4) + host_transfer_ns(output_bytes)
    card = (
        _ns(COMMAND_DECODE_CYCLES, MCU_CLOCK_HZ)
        + miss_ns
        + 2 * ram_ns(input_bytes) + interface_ns(input_bytes)
        + _ns(cycles, FABRIC_CLOCK_HZ)
        + interface_ns(output_bytes) + 2 * ram_ns(output_bytes)
    )
    return host + card


#: Each policy's eviction order (first evicted first) over a residency entry
#: ``[loaded_at, last_use, count]``, as ``repro.mcu.minios.policies`` ranks the
#: replacement table.  Stamps are call indexes: every call is a later instant
#: than the one before, so no two entries tie and names never break a tie.
RANKS = {
    "lru": lambda entry: entry[1],
    "fifo": lambda entry: entry[0],
    "lfu": lambda entry: (entry[2], entry[1]),
}


def calls_ns(
    config,
    bank,
    blobs: Dict[str, bytes],
    calls: Iterable[Tuple[str, bytes]],
    policy: str,
) -> List[Tuple[int, bool, int]]:
    """Each call's ``(total_ns, hit, evictions)`` on a fresh card under *policy*.

    Residency is the only state: a miss evicts in the policy's order until
    the newcomer's frames fit (any free frames will do, as under
    contiguous-first-fit placement with its scattered fallback), and a load
    counts as the new entry's first use.
    """
    geometry = config.geometry()
    rank = RANKS[policy]
    frames = {function.name: function.frames_required(geometry) for function in bank}
    resident: Dict[str, List[int]] = {}
    results = []
    for index, (name, payload) in enumerate(calls):
        output, cycles = bank.by_name(name).executor(geometry).run(payload)
        hit = name in resident
        miss = evictions = 0
        if not hit:
            while frames[name] + sum(frames[other] for other in resident) > geometry.frame_count:
                del resident[min(resident, key=lambda other: rank(resident[other]))]
                evictions += 1
            miss = miss_terms(blobs[name]).serial_ns
            resident[name] = [index, index, 0]
        entry = resident[name]
        entry[1] = index
        entry[2] += 1
        results.append((call_ns(len(payload), len(output), cycles, miss), hit, evictions))
    return results
