"""Netlist construction helpers.

Builds the real technology-mapped netlists used by the small logic functions
(parity, adder, popcount).  Every LUT cell is padded to the fabric's LUT width
(extra inputs are ignored by the truth table), because frames serialise a
fixed number of truth-table bytes per LUT.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.fpga.geometry import LUT_INPUTS
from repro.fpga.lut import LookUpTable
from repro.fpga.netlist import Netlist


def padded_lut(width: int, function: Callable[[Sequence[bool]], bool]) -> LookUpTable:
    """A fabric-width LUT computing *function* of its first *width* inputs."""
    if width > LUT_INPUTS:
        raise ValueError(
            f"cannot map a {width}-input function onto a {LUT_INPUTS}-input LUT"
        )
    return LookUpTable.from_function(LUT_INPUTS, lambda bits: function(bits[:width]))


def add_padded_lut(
    netlist: Netlist,
    name: str,
    function: Callable[[Sequence[bool]], bool],
    fanin: Sequence[str],
    output_net: str | None = None,
) -> str:
    """Add a LUT cell whose fanin is padded up to the fabric LUT width.

    Padding reuses the first fanin net (its value is ignored by the padded
    truth table), so no dangling nets are created.
    """
    if not fanin:
        raise ValueError("a LUT cell needs at least one fanin net")
    width = len(fanin)
    lut = padded_lut(width, function)
    padded_fanin = list(fanin) + [fanin[0]] * (LUT_INPUTS - width)
    return netlist.add_lut(name, lut, padded_fanin, output_net=output_net)


# --------------------------------------------------------------------------
# Parity (XOR reduction tree)
# --------------------------------------------------------------------------

#: Primary inputs of the parity tree: the bank's ``parity32``.
PARITY_INPUT_BITS = 32


def build_parity_netlist() -> Netlist:
    """XOR-reduce :data:`PARITY_INPUT_BITS` primary inputs down to a single parity bit."""
    netlist = Netlist(f"parity{PARITY_INPUT_BITS}")
    level = [netlist.add_input(f"d{index}") for index in range(PARITY_INPUT_BITS)]
    stage = 0
    while len(level) > 1:
        next_level: List[str] = []
        for group_index in range(0, len(level), LUT_INPUTS):
            group = level[group_index : group_index + LUT_INPUTS]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            net = add_padded_lut(
                netlist,
                name=f"xor_s{stage}_g{group_index // LUT_INPUTS}",
                function=lambda bits: sum(bits) % 2 == 1,
                fanin=group,
            )
            next_level.append(net)
        level = next_level
        stage += 1
    netlist.add_output(level[0])
    return netlist


# --------------------------------------------------------------------------
# Ripple-carry adder
# --------------------------------------------------------------------------

def build_adder_netlist(width: int = 8) -> Netlist:
    """A *width*-bit ripple-carry adder: inputs a[width], b[width]; outputs
    sum[width] and the final carry."""
    if width <= 0:
        raise ValueError("adder width must be positive")
    netlist = Netlist(f"adder{width}")
    a_nets = [netlist.add_input(f"a{index}") for index in range(width)]
    b_nets = [netlist.add_input(f"b{index}") for index in range(width)]
    carry: str | None = None
    sum_nets: List[str] = []
    for index in range(width):
        if carry is None:
            sum_net = add_padded_lut(
                netlist,
                name=f"sum{index}",
                function=lambda bits: bits[0] ^ bits[1],
                fanin=[a_nets[index], b_nets[index]],
            )
            carry = add_padded_lut(
                netlist,
                name=f"carry{index}",
                function=lambda bits: bits[0] and bits[1],
                fanin=[a_nets[index], b_nets[index]],
            )
        else:
            sum_net = add_padded_lut(
                netlist,
                name=f"sum{index}",
                function=lambda bits: (bits[0] ^ bits[1]) ^ bits[2],
                fanin=[a_nets[index], b_nets[index], carry],
            )
            carry = add_padded_lut(
                netlist,
                name=f"carry{index}",
                function=lambda bits: (bits[0] and bits[1]) or (bits[2] and (bits[0] or bits[1])),
                fanin=[a_nets[index], b_nets[index], carry],
            )
        sum_nets.append(sum_net)
    for net in sum_nets:
        netlist.add_output(net)
    netlist.add_output(carry)
    return netlist


# --------------------------------------------------------------------------
# Popcount
# --------------------------------------------------------------------------

def build_popcount_netlist() -> Netlist:
    """Count the set bits of 8 inputs (a 4-bit output): the bank's ``popcount8``.

    Built from two 4-bit population counts (pure LUT functions of 4 inputs)
    followed by a small ripple-carry adder, which keeps every cell within the
    fabric's LUT width.
    """
    netlist = Netlist("popcount8")
    inputs = [netlist.add_input(f"d{index}") for index in range(8)]

    def count_bit(bit: int) -> Callable[[Sequence[bool]], bool]:
        return lambda bits: (sum(bits) >> bit) & 1 == 1

    # Two nibble counters, each producing a 3-bit count (0..4).
    low_counts: List[str] = []
    high_counts: List[str] = []
    for bit in range(3):
        low_counts.append(
            add_padded_lut(netlist, f"lo_cnt{bit}", count_bit(bit), inputs[:4])
        )
        high_counts.append(
            add_padded_lut(netlist, f"hi_cnt{bit}", count_bit(bit), inputs[4:])
        )

    # 3-bit ripple-carry adder producing the 4-bit total.
    outputs: List[str] = []
    carry: str | None = None
    for index in range(3):
        if carry is None:
            sum_net = add_padded_lut(
                netlist, f"tot{index}",
                lambda bits: bits[0] ^ bits[1],
                [low_counts[index], high_counts[index]],
            )
            carry = add_padded_lut(
                netlist, f"totc{index}",
                lambda bits: bits[0] and bits[1],
                [low_counts[index], high_counts[index]],
            )
        else:
            sum_net = add_padded_lut(
                netlist, f"tot{index}",
                lambda bits: (bits[0] ^ bits[1]) ^ bits[2],
                [low_counts[index], high_counts[index], carry],
            )
            carry = add_padded_lut(
                netlist, f"totc{index}",
                lambda bits: (bits[0] and bits[1]) or (bits[2] and (bits[0] or bits[1])),
                [low_counts[index], high_counts[index], carry],
            )
        outputs.append(sum_net)
    outputs.append(carry)
    for net in outputs:
        netlist.add_output(net)
    return netlist
