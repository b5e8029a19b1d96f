"""One measurement in one fresh process; run by ``run.py``, never by hand.

``python worker.py '<json spec>'`` with ``spec = {"workload", "seed", "ops",
"seconds", "mode"}`` prints one JSON object on its last line.  Modes:

``setup``   cold set-up only: import, bank, trace, system build (the four
            spans that sum to ``setup_s``).
``timed``   set-up, an untimed warm-up at 2% of the operations, then timed
            runs (``gc`` disabled, a fresh system each) for about ``seconds``
            of timed work.  Every run's outcome must be equal.
``traced``  set-up, warm-up, one untimed-by-profiler run and one run under
            ``cProfile`` at a quarter of the operations, the per-layer fold,
            the public counters and the direct ``layer_calls`` timings.

Host numbers (seconds, bytes) and simulated numbers (the ``outcome``) are kept
in separate keys and never combined here.

The sandbox's CPU speed swings by a quarter and more within a second, so a
:class:`ReferenceSampler` runs a fixed *reference loop* twenty times a second
inside every timed interval (from a timer signal, its own time subtracted):
``run.py`` reports host times in reference seconds, the seconds a host would
take that runs the loop at ``REFERENCE_ITERATIONS_PER_S`` throughout.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time

#: Iterations of the reference loop per sample (about 5 ms here).
REFERENCE_ITERATIONS = 100_000
#: What this box does when nothing else competes for the core; one reference
#: second is the time the host needs for this many iterations.
REFERENCE_ITERATIONS_PER_S = 2.0e7
REFERENCE_NOMINAL_S = REFERENCE_ITERATIONS / REFERENCE_ITERATIONS_PER_S
SAMPLE_PERIOD_S = 0.05

#: Everything a shape imports lazily, so the import cost is one span.
_IMPORTS = (
    "repro.analysis.sketch", "repro.cluster.sharded", "repro.core.builder",
    "repro.faults", "repro.net", "repro.obs", "repro.workloads.generators",
    "repro.workloads.multitenant",
)


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_kb() -> int:
    """Peak resident set so far (Linux reports kilobytes).  Workers of the
    sharded workload are children of this process; the largest one is added
    to the parent's own peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


class ReferenceSampler:
    """Times the reference loop every ``SAMPLE_PERIOD_S`` while it is running.

    The loop runs in the main thread from a ``SIGALRM`` handler, so it samples
    the speed of the very core the measured code is using.  ``wall_s`` and
    ``cpu_s`` accumulate what the samples themselves cost, for the caller to
    subtract.  Timers are not inherited by forked children.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._walls = []
        self._cpus = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        cpu = time.process_time()
        start = time.perf_counter()
        total = 0
        for index in range(REFERENCE_ITERATIONS):
            total += index * index % 7
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        self.wall_s += wall
        self.cpu_s += cpu
        self._walls.append(wall)
        self._cpus.append(cpu)
        self._busy = False

    def reference(self):
        """Mean (wall, cpu) seconds of one sample, the host's speed while sampling.

        A sample the host stalled in (ten times the usual 5 ms, once in a few
        hundred) would move the mean of a 2 s run by a third, so samples are
        clipped at twice their median first.
        """
        def clipped_mean(values):
            cap = 2.0 * statistics.median(values)
            return statistics.fmean(min(value, cap) for value in values)

        return clipped_mean(self._walls), clipped_mean(self._cpus)

    def __enter__(self) -> "ReferenceSampler":
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sample()


def _timed_run(shape, system) -> dict:
    """Run *system* once with the collector off and the sampler on.

    ``wall_s``/``cpu_s`` are net of the samples; ``ref_wall_s``/``ref_cpu_s``
    are the time of one sample, the host's speed during this run.
    """
    sampler = ReferenceSampler()
    gc.collect()
    gc.disable()
    try:
        with sampler:
            before = (sampler.wall_s, sampler.cpu_s)
            cpu = _cpu_seconds()
            start = time.perf_counter()
            shape.run(system)
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu
            wall -= sampler.wall_s - before[0]
            cpu -= sampler.cpu_s - before[1]
    finally:
        gc.enable()
    ref_wall, ref_cpu = sampler.reference()
    return {"wall_s": wall, "cpu_s": cpu, "ref_wall_s": ref_wall, "ref_cpu_s": ref_cpu}


def measure(spec: dict) -> dict:
    import importlib

    spans = {}
    sampler = ReferenceSampler()
    mark = 0.0

    def lap(name: str) -> None:
        """Close span *name*: host seconds since the last lap, net of samples."""
        nonlocal mark
        now = time.perf_counter() - sampler.wall_s
        spans[name] = now - mark
        mark = now

    with sampler:
        mark = time.perf_counter() - sampler.wall_s
        for module in _IMPORTS:
            importlib.import_module(module)
        import layers
        import shapes

        lap("import_s")
        shape = shapes.shape_named(spec["workload"])
        ops = spec["ops"]
        seed = spec["seed"]
        bank = shape.build_bank()
        lap("bank_build_s")
        trace = shape.make_trace(bank, seed, ops)
        lap("trace_gen_s")
        system = shape.build_system(bank, trace, seed)
        lap("system_build_s")
    setup_ref_s = sampler.reference()[0]
    mark = time.perf_counter() - sampler.wall_s
    result = {"mode": spec["mode"], "ops": ops, "spans": spans, "setup_ref_s": setup_ref_s, "violations": []}
    if spec["mode"] == "setup":
        return result

    warm_ops = max(shape.min_ops // 4, ops // 50)
    shape.run(shape.build_system(bank, shape.make_trace(bank, seed, warm_ops), seed))
    lap("warmup_s")

    def check(outcome: dict, expected: dict = None) -> None:
        problems = shapes.accounting_violations(outcome) + shape.violations(outcome)
        if expected is not None and outcome != expected:
            changed = sorted(key for key in outcome if outcome[key] != expected.get(key))
            problems.append(f"repeated run differs in {changed}")
        result["violations"].extend(problems)

    if spec["mode"] == "timed":
        runs = []
        outcome = None
        timed = 0.0
        while True:
            runs.append(_timed_run(shape, system))
            timed += runs[-1]["wall_s"]
            # Read after the first run, so that the peak does not depend on
            # how many runs the host's speed let into the budget.
            if len(runs) == 1:
                result["peak_rss_kb"] = _peak_rss_kb()
            mark = time.perf_counter() - sampler.wall_s
            latest = shape.outcome(system)
            lap("finalize_s")
            check(latest, outcome)
            outcome = outcome or latest
            # Stop at the whole number of runs nearest to the budget.
            if timed + 0.5 * timed / len(runs) >= spec["seconds"]:
                break
            system = shape.build_system(bank, trace, seed)
        spans["run_s"] = timed
        result["runs"] = runs
    else:
        import cProfile
        import pstats

        traced_ops = max(shape.min_ops, ops // 4)
        trace = shape.make_trace(bank, seed, traced_ops)
        system = shape.build_system(bank, trace, seed)
        plain = _timed_run(shape, system)
        spans["run_s"] = plain["wall_s"]
        mark = time.perf_counter() - sampler.wall_s
        outcome = shape.outcome(system)
        lap("finalize_s")
        check(outcome)

        system = shape.build_system(bank, trace, seed)
        profiler = cProfile.Profile()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            profiler.runcall(shape.run, system)
            profiled_wall = time.perf_counter() - start
        finally:
            gc.enable()
        check(shape.outcome(system), outcome)
        result["ops"] = traced_ops
        result["fold"] = layers.fold(pstats.Stats(profiler).stats, traced_ops)
        result["plain"] = plain
        result["trace_overhead_x"] = profiled_wall / plain["wall_s"]
        if hasattr(shape, "single_process_digest"):
            # Reported, not required: one trace seed in ten makes the merged
            # schedule differ from the single-process one (see README).
            outcome["shard_digest_match"] = int(shape.single_process_digest(trace) == outcome["digest"])
        result["layer_calls"] = layers.layer_calls(spec["seconds"] / 16.0)

    from repro.fpga.bitgen import bitstream_cache

    result["outcome"] = outcome
    result["bitstream_cache"] = bitstream_cache().stats()
    result["optins_applied"] = shape.optins_applied
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    print(json.dumps(measure(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
