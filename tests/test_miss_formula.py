"""The simulator's miss path equals its formula (``oracles/miss_formula.py``).

Exact integer equality, term by term: for every function, codec and fabric
the card's reconfiguration report carries the formula's ROM, decompression
and port times, and the clock advances by the serial or pipelined total.
The whole-request form predicts every call's time, hit and eviction count
under LRU, FIFO and LFU on the churn card and on E3's, and reproduces the
300-call churn pin without running the card.
"""

import hashlib

import pytest

from oracles.miss_formula import RANKS, calls_ns, miss_terms
from repro.bitstream.codecs import available_codecs
from repro.core.builder import build_coprocessor, build_host_driver
from repro.core.config import CoprocessorConfig
from repro.functions.bank import build_default_bank
from repro.workloads.generators import phased_trace, round_robin_trace, zipf_trace
from test_miss_path_pin import PINNED, churn_config

#: The default card, and E8's four frame heights on its 8x32 fabric (the
#: 8-row one is E3's fabric).
FABRICS = {"default": CoprocessorConfig()} | {
    f"8x32/{rows}": CoprocessorConfig(
        fabric_columns=8, fabric_rows=32, clb_rows_per_frame=rows, seed=2005
    )
    for rows in (2, 4, 8, 16)
}


@pytest.fixture(scope="module")
def bank():
    return build_default_bank()


@pytest.mark.parametrize("fabric", FABRICS)
def test_every_cold_load_is_its_formula(bank, fabric):
    cases = 0
    for codec in available_codecs():
        config = FABRICS[fabric].with_overrides(codec_name=codec)
        copro = build_coprocessor(config=config, bank=bank)
        for function in bank:
            if function.frames_required(copro.geometry) > copro.geometry.frame_count:
                continue
            terms = miss_terms(copro.rom.read_bitstream(function.name))
            for overlap, total in ((False, terms.serial_ns), (True, terms.pipelined_ns)):
                copro.reset()
                copro.config_module.overlap_decompress = overlap
                outcome = copro.preload(function.name)
                report = outcome.reconfiguration
                assert (
                    report.rom_time_ns,
                    report.decompress_time_ns,
                    report.port_time_ns,
                    report.total_time_ns,
                    outcome.reconfig_time_ns,
                ) == (terms.rom_ns, terms.decompress_ns, terms.port_ns, total, total), (
                    codec, function.name, overlap
                )
            cases += 1
    assert cases >= 7 * 6


def e3_card():
    """E3's 32-frame card and its six-function working set."""
    bank = build_default_bank().subset(["sha1", "crc32", "fir16", "strmatch", "bitonic64", "parity32"])
    config = CoprocessorConfig(fabric_columns=8, fabric_rows=32, clb_rows_per_frame=8, seed=2005)
    return config, bank


CARDS = {"churn": churn_config, "e3": e3_card}
TRACES = {
    "zipf": lambda bank: zipf_trace(bank, 300, skew=1.2, seed=2005),
    "phased": lambda bank: phased_trace(bank, 300, phase_length=40, working_set=3, seed=2005),
    "round-robin": lambda bank: round_robin_trace(bank, 300, repeats_per_function=4, seed=2005),
}


def _calls(trace):
    return [(request.function, request.payload) for request in trace]


@pytest.mark.parametrize("policy", sorted(RANKS))
@pytest.mark.parametrize("trace", TRACES)
@pytest.mark.parametrize("card", CARDS)
def test_every_call_is_its_formula(card, trace, policy):
    config, bank = CARDS[card]()
    driver = build_host_driver(config=config.with_overrides(replacement_policy=policy), bank=bank)
    blobs = {name: driver.coprocessor.rom.read_bitstream(name) for name in bank.names()}
    calls = _calls(TRACES[trace](bank))
    predicted = calls_ns(config, bank, blobs, calls, policy)
    for index, ((name, payload), expected) in enumerate(zip(calls, predicted)):
        result = driver.call(name, payload)
        observed = (result.total_ns, result.card_result.hit, len(result.card_result.evictions))
        assert observed == expected, (index, name)
    assert len(predicted) == 300 and sum(evictions for *_, evictions in predicted) > 0


def test_the_formula_alone_reproduces_the_churn_pin():
    config, bank = churn_config()
    copro = build_coprocessor(config=config, bank=bank)
    blobs = {name: copro.rom.read_bitstream(name) for name in bank.names()}
    calls = _calls(zipf_trace(bank, 300, skew=0.8, seed=11))
    digest = hashlib.sha256()
    for total_ns, _, _ in calls_ns(config, bank, blobs, calls, "lru"):
        digest.update(b"%d" % total_ns)
    assert digest.hexdigest() == PINNED["total_ns_sha"]
