"""Determinism contract of the observability layer.

Two halves, matching the acceptance criteria:

* **Off is free**: running a cell with no observability, with tracing fully
  on and with tracing, SLOs and tail sampling on must all produce
  byte-identical schedule digests and front-door fingerprints — tracing
  spawns no kernel events and consumes no RNG.
* **On is reproducible**: the trace fingerprint (every span's name, ids,
  parent, start, end and attributes) and the metrics snapshot of a
  fixed-seed cell are byte-identical across *processes* (same pattern as
  ``test_net_determinism``: only a fresh interpreter catches salted-hash or
  dict-order regressions).

The cross-process snippets drive the cells in ``tests/obs_cells.py``.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_TRACE_SNIPPET = """
import hashlib
import sys
sys.path.insert(0, "src")
sys.path.insert(0, "tests")
from frontdoor_fingerprint import frontdoor_fingerprint
from obs_cells import traced_frontdoor
from repro.obs import metrics_snapshot_json, trace_fingerprint

frontdoor, observability = traced_frontdoor(requests=150, overload=3.0, loss=0.02)
print(repr(frontdoor_fingerprint(frontdoor)))
print(len(observability.spans), observability.tracer.dropped)
print(trace_fingerprint(observability.spans))
print(hashlib.sha256(metrics_snapshot_json(observability.registry).encode()).hexdigest())
"""


def run_snippet(snippet: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestObservabilityIsFreeWhenOff:
    def test_digests_identical_across_none_traced_judged(self):
        from frontdoor_fingerprint import frontdoor_fingerprint
        from repro.core.builder import build_fleet, build_frontdoor
        from repro.core.config import SMALL_CONFIG
        from repro.functions.bank import build_small_bank
        from repro.net import LinkSpec, OpenLoopPopulation
        from repro.obs import Observability
        from repro.workloads.multitenant import (
            default_tenant_mix,
            multi_tenant_trace,
        )

        from repro.obs import SloSpec, TailSampler

        def run(observability):
            bank = build_small_bank()
            tenants = default_tenant_mix(bank, tenants=2, skew=1.2)
            trace = multi_tenant_trace(
                bank, tenants, length=60, mean_interarrival_ns=25_000.0, seed=17
            )
            fleet = build_fleet(
                cards=2,
                config=SMALL_CONFIG.with_overrides(seed=17),
                bank=bank,
                observability=observability,
            )
            frontdoor = build_frontdoor(
                fleet,
                seed=17,
                gateways=2,
                uplink=LinkSpec(latency_ns=15_000.0, loss=0.05, jitter_ns=3_000.0),
            )
            frontdoor.add_population(OpenLoopPopulation(trace))
            frontdoor.run()
            return frontdoor_fingerprint(frontdoor)

        baseline = run(None)
        traced = run(Observability())
        judged = run(
            Observability(
                slos=[
                    SloSpec.availability(
                        "net.availability", objective=0.95, source="net", min_events=5
                    ),
                    SloSpec.latency(
                        "net.latency.p95",
                        threshold_ns=300_000.0,
                        objective=0.9,
                        source="net",
                        min_events=5,
                    ),
                ],
                tail=TailSampler(slow_ns=300_000.0),
            )
        )
        assert traced == baseline
        assert judged == baseline


class TestCrossProcessTraceDeterminism:
    def test_exported_trace_is_byte_identical_across_processes(self):
        first = run_snippet(_TRACE_SNIPPET)
        second = run_snippet(_TRACE_SNIPPET)
        assert first == second
        assert first.strip()
        # The run actually traced something and dropped nothing.
        spans, dropped = first.splitlines()[1].split()
        assert int(spans) > 0
        assert int(dropped) == 0


_KILL_DRILL_SNIPPET = """
import json
import sys
sys.path.insert(0, "src")
sys.path.insert(0, "tests")
from obs_cells import kill_drill
from repro.obs import incidents_fingerprint, incidents_json

fleet, obs = kill_drill()
print(fleet.stats.schedule_digest())
print(incidents_fingerprint(obs.recorder))
print(json.dumps([{"slo": a.slo, "fired_ns": a.fired_ns, "resolved_ns": a.resolved_ns} for a in obs.alerts]))
print(incidents_json(obs.recorder))
"""


class TestKillDrillIncidentDeterminism:
    """The E10 kill drill's flight record, reproduced byte-for-byte."""

    def test_incident_json_identical_across_processes_and_complete(self):
        import json

        first = run_snippet(_KILL_DRILL_SNIPPET)
        second = run_snippet(_KILL_DRILL_SNIPPET)
        assert first == second

        lines = first.splitlines()
        alerts = json.loads(lines[2])
        assert any(a["slo"] == "fleet.availability" for a in alerts)

        record = json.loads("\n".join(lines[3:]))
        incidents = record["incidents"]
        assert incidents
        availability = next(
            inc for inc in incidents if inc["slo"] == "fleet.availability"
        )
        timeline = availability["timeline"]
        # The kill event, the heal order.* span and at least one
        # tail-retained failed trace all made it into the flight record.
        assert any(
            ev["kind"] == "fault" and ev["fault"] == "kill" for ev in timeline
        )
        assert any(
            ev["kind"] == "span" and ev["span"].startswith("order.heal")
            for ev in timeline
        )
        assert any(
            trace["reason"] == "error" for trace in availability["traces"]
        )
