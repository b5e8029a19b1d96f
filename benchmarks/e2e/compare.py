"""``run.py --compare A.json B.json``: is ledger B worse than ledger A?

One row per workload x end-to-end metric, judged by the rule of the
choosing-metrics guide:

* **host metrics** (``ops_per_ref_s``, ``cpu_ref_us_per_op``, ``peak_rss_mb``,
  ``setup_s``) use the bound fixed in ``BENCHMARK.json``.  B's median worse
  than A's by more than the bound is *regressed*.  Where the spread between
  A's own repetitions (quartile distance over median) is wider than the
  bound the row is *unresolved*, unless every repetition of B reads better
  than every repetition of A.  B better than A by more than A's spread, with
  every repetition better, is *improved*; anything else is *unchanged*.
* **simulated metrics** are exact for a given seed and size, so the two
  ledgers must have been run with the same ``--seed`` and ``--scale`` and
  the values must agree within ``SIMULATED_TOLERANCE`` (0.1%: room for one
  announced re-baseline of the clock, none for behavioural drift).  The bound
  in ``BENCHMARK.json`` is wider only because the driver compares runs of
  different seeds.

Per-layer deltas follow each workload: layers whose ``self_share`` moved by
more than 0.02, exact counters that changed at all, and ``calls_per_op`` that
moved by more than ``CALLS_TOLERANCE`` of the workload's total (the program
iterates over sets of objects hashed by address, so a few calls in ten
thousand differ between two processes).  They inform; they never gate.  Exit status 1 when any row is *regressed* or *unresolved*.
"""

from __future__ import annotations

import json
from typing import Dict, List

SIMULATED_TOLERANCE = 0.001
SHARE_DELTA = 0.02
CALLS_TOLERANCE = 0.002


def worsening(before: float, after: float, better: str) -> float:
    """How much worse *after* is than *before*, as a share of *before* (< 0: better)."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def judge_host(a: dict, b: dict, better: str, bound: float) -> str:
    worse = worsening(a["median"], b["median"], better)
    spread = (a["q3"] - a["q1"]) / abs(a["median"]) if a["median"] else 0.0
    if better == "lower":
        all_better = max(b["samples"]) < min(a["samples"])
    else:
        all_better = min(b["samples"]) > max(a["samples"])
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread and all_better:
        return "improved"
    return "unchanged"


def judge_simulated(before: float, after: float, better: str) -> str:
    worse = worsening(before, after, better)
    if abs(worse) <= SIMULATED_TOLERANCE:
        return "unchanged"
    return "regressed" if worse > 0 else "improved"


def compare(ledger_a: dict, ledger_b: dict, contract: dict) -> List[dict]:
    """Rows of ``{workload, metric, a, b, status}`` for every shared workload."""
    same_inputs = all(
        ledger_a["manifest"][key] == ledger_b["manifest"][key] for key in ("seed", "scale")
    )
    better = {metric["name"]: metric["better"] for metric in contract["end_to_end"] + contract["per_layer"]}
    rows = []
    for workload, entry_a in ledger_a["workloads"].items():
        entry_b = ledger_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name in entry_a["simulated"]:
                continue
            a, b = entry_a["end_to_end"][name], entry_b["end_to_end"][name]
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "a": a["median"], "b": b["median"],
                         "status": judge_host(a, b, metric["better"], metric["bound"])})
        for name, before in entry_a["simulated"].items():
            after = entry_b["simulated"][name]
            status = judge_simulated(before, after, better[name]) if same_inputs else "unresolved"
            rows.append({"workload": workload, "metric": name, "unit": "sim",
                         "a": before, "b": after, "status": status})
    return rows


def per_layer_deltas(entry_a: dict, entry_b: dict) -> List[str]:
    lines = []
    calls_slack = CALLS_TOLERANCE * entry_a["per_layer"]["total.calls_per_op"]
    for name, before in sorted(entry_a["per_layer"].items()):
        after = entry_b["per_layer"].get(name)
        if after is None:
            continue
        if name.endswith(".self_share"):
            if abs(after - before) > SHARE_DELTA:
                lines.append(f"    {name}: {before:.3f} -> {after:.3f}")
        elif name.endswith(".calls_per_op"):
            if abs(after - before) > calls_slack:
                lines.append(f"    {name}: {before:.6g} -> {after:.6g}")
        elif name in entry_a["per_layer_exact"] and after != before:
            lines.append(f"    {name}: {before:.6g} -> {after:.6g} (exact counter changed)")
    return lines


def main(path_a: str, path_b: str, contract: Dict[str, object]) -> int:
    with open(path_a) as handle:
        ledger_a = json.load(handle)
    with open(path_b) as handle:
        ledger_b = json.load(handle)
    rows = compare(ledger_a, ledger_b, contract)
    for workload, entry_a in ledger_a["workloads"].items():
        mine = [row for row in rows if row["workload"] == workload]
        if not mine:
            continue
        print(f"-- {workload}")
        for row in mine:
            print(f"  {row['metric']:<18} {row['a']:>16.6g} -> {row['b']:>16.6g} {row['unit']:<6} {row['status']}")
        for line in per_layer_deltas(entry_a, ledger_b["workloads"][workload]):
            print(line)
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print("summary: " + ", ".join(f"{count} {status}" for status, count in sorted(counts.items())))
    return 1 if counts.get("regressed") or counts.get("unresolved") else 0


__all__ = ["compare", "judge_host", "judge_simulated", "main", "per_layer_deltas"]
