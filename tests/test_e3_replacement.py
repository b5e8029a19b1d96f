"""E3 in tier-1: the replacement-policy report regenerates byte for byte, and
the benchmark's clairvoyant policy ranks as Belady's rule says.

The report's rows come from the card (LRU, FIFO, LFU, Random) and from
``benchmarks/offline_policies.py``'s :class:`BeladyPolicy`, installed on a
built card and stepped once per request; no card policy reads the future.
"""

import pathlib

from benchmarks.bench_e3_replacement_policy import build_report
from benchmarks.offline_policies import BeladyPolicy
from repro.fpga.frame import FrameRegion
from repro.mcu.minios import FrameReplacementTable, LruPolicy

E3_REPORT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "reports" / "E3.txt"


def test_e3_report_regenerates_byte_for_byte(default_bank):
    """All 15 (trace, policy) rows — hit rate, evictions, mean and p95
    latency — plus the chart and the metrics equal the committed report."""
    assert build_report(default_bank).render() == E3_REPORT.read_text()


def _table(geometry):
    """``first`` loaded at 10 and used at 100 and 110, ``second`` loaded at 20
    and used at 50, ``third`` loaded at 30 and not used since."""
    table = FrameReplacementTable()
    for name, frames, loaded_at in (("first", [0, 1], 10), ("second", [2, 3, 4], 20), ("third", [5], 30)):
        table.insert(name, FrameRegion.from_addresses([geometry.all_frames()[i] for i in frames]), loaded_at)
    table.touch("first", 100)
    table.touch("first", 110)
    table.touch("second", 50)
    return table


def _names(entries):
    return [entry.name for entry in entries]


def test_belady_evicts_the_farthest_next_use_first(tiny_geometry):
    policy = BeladyPolicy(["crc32", "third", "first"])  # "second" is never used again
    assert policy.cursor == 0
    assert _names(policy.rank_victims(_table(tiny_geometry))) == ["second", "first", "third"]
    policy.cursor = 1  # serving "third": only "first" is used again; the rest tie, oldest access first
    assert _names(policy.rank_victims(_table(tiny_geometry))) == ["third", "second", "first"]


def test_belady_at_the_last_request_ranks_as_lru(tiny_geometry):
    table = _table(tiny_geometry)
    policy = BeladyPolicy(["third", "first", "second"])
    policy.cursor = 2
    assert _names(policy.rank_victims(table)) == _names(LruPolicy().rank_victims(table))
    assert _names(policy.rank_victims(table)) == ["third", "second", "first"]
