"""One workload's closed loop, run in its own process by ``run.py``.

Usage: ``worker.py WORKLOAD SEED SECONDS TRACE``.  The workload's
prelude operations run first, checked but not timed.  Then one caller
issues the next operation only after the previous one returned: passes
of seeded inputs run until ``SECONDS`` of wall time have gone by, and
the pass in progress is completed, so every run sees whole passes.  Only
the operation itself is timed; its oracle check follows outside the
timed region.  The worker and every process it starts run on one
processor.  Between operations the reference loop of ``pace.py`` is
timed every 25 ms, and each latency is also reported scaled to the
reference speed.  With ``TRACE`` = 0, once a second and also between
operations, a fresh interpreter importing the workload's entry module is
timed for ``setup_s``, so that its samples span the whole run.  With
``TRACE`` = 1 each pass is run again right after, with the tracer
installed, which yields the per-layer numbers and the tracing overhead.
Prints one JSON object on standard output.
"""

import json
import os
import sys
from time import perf_counter, perf_counter_ns

from pace import Pace
from run import ENTRY_MODULES, wall_s
from tracer import Tracer
from workloads import WORKLOADS

MAX_REPORTED_FAILURES = 5
SETUP_EVERY_NS = 1_000_000_000


def operate(workload, item, failures) -> int:
    """Run one operation, check it, and return its latency in nanoseconds."""
    t0 = perf_counter_ns()
    try:
        out = workload.run(item)
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{item}: {type(exc).__name__}: {exc}"
    elapsed = perf_counter_ns() - t0
    if error is None:
        error = workload.check(item, out)
    if error is not None:
        failures.append(error)
    return elapsed


def closed_loop(workload, seconds, pace, tracer=None, setup_cmd=None):
    """Run passes until ``seconds`` have gone by; with a tracer, replay each pass traced.

    With ``setup_cmd``, that command is timed every SETUP_EVERY_NS between
    operations.  Returns the untraced operations and the set-up probes as
    (start, elapsed) pairs in nanoseconds.
    """
    plain, traced, setup, failures, passes = [], [], [], [], 0
    start = perf_counter()
    for batch in iter(workload.next_pass, None):
        for item in batch:
            if setup_cmd is not None and (not setup or perf_counter_ns() - setup[-1][0] >= SETUP_EVERY_NS):
                pace.tick(force=True)
                t0 = perf_counter_ns()
                setup.append((t0, round(wall_s(setup_cmd, group=False) * 1e9)))
            pace.tick()
            t0 = perf_counter_ns()
            plain.append((t0, operate(workload, item, failures)))
        if tracer is not None:
            # pass by pass, so drift in machine speed hits both sides alike
            tracer.install()
            workload.tracer = tracer
            try:
                traced.extend(operate(workload, item, failures) for item in batch)
            finally:
                tracer.uninstall()
                workload.tracer = None
        passes += 1
        if perf_counter() - start >= seconds:
            break
    return plain, traced, setup, failures, passes


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    # one processor for the worker and the processes it starts, so that the
    # reference loop times the processor the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[name](seed)
    failures = []
    prelude = workload.prelude()
    for item in prelude:
        operate(workload, item, failures)
    tracer = Tracer() if trace else None
    pace = Pace()
    pace.tick(force=True)
    setup_cmd = None if trace else [sys.executable, "-c", f"import {ENTRY_MODULES[name]}"]
    plain, traced, setup, loop_failures, passes = closed_loop(workload, seconds, pace, tracer, setup_cmd)
    pace.tick(force=True)
    failures += loop_failures
    latencies = [elapsed for _, elapsed in plain]
    result = {
        "latencies_ns": latencies,
        "scaled_ns": [pace.scale(t0, elapsed) for t0, elapsed in plain],
        "setup_ns": [elapsed for _, elapsed in setup],
        "scaled_setup_ns": [pace.scale(t0, elapsed) for t0, elapsed in setup],
        "reference_ms": pace.reference_ms(),
        "attempted": len(prelude) + len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "passes": passes,
    }
    if trace:
        result["trace"] = {
            **tracer.snapshot(),
            "ops": len(traced),
            "untraced_ns": sum(latencies),
            "traced_ns": sum(traced),
        }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
