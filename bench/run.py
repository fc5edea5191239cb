"""fanobase benchmark: one workload, one closed loop, metrics on the last line.

    python3 bench/run.py --workload scroll-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, trace 0

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported, with ``--trace 1`` the per-layer metrics.  The workload runs in
a worker process (``worker.py``); this process only starts children,
reads their peak memory with ``resource.getrusage`` and turns the
samples into metrics.  It imports nothing from the package, so it can
refuse to run when ``src/fanobase`` is missing.  End-to-end times are
scaled to the reference speed of ``pace.py``; the raw wall-time figures
are on the ``context`` line.  See ``README.md`` for why each workload
exists and which layer it should move.

Exit codes: 0 every oracle agreed, 1 an operation failed or disagreed
with its oracle, 2 usage error or no program to measure.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# module each workload's worker imports first; setup_s times importing it
ENTRY_MODULES = {
    "verify-paper": "fanobase.cli",
    "scroll-ladder": "fanobase.scroll",
    "cover-family": "fanobase.classify",
    "wps-series": "fanobase.wps",
}
COLD_START_ROUNDS = 9
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150

MODULES = ("cli", "report", "classify", "cover", "scroll", "hirzebruch", "k3pencil", "wps", "blowup")
FUNCTIONS = (
    "report.build_report",
    "report.to_json",
    "classify.case_checks",
    "cover.analyze_cover",
    "scroll.h0",
    "scroll.monomial_support",
    "scroll.fiber_multiplicity_at",
    "scroll.fixed_component_multiplicity",
    "scroll.intersect",
    "wps.hilbert_coeffs",
    "wps.infer_ring",
)


def package_env() -> dict:
    """Environment for a child interpreter that imports ``fanobase`` from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_child(cmd, timeout, group=True):
    """Run a child, with ``group`` in its own process group; kill it if it overruns.

    A child started without its own group stays in its parent's, and is
    killed with the parent when the parent's group is.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=package_env(), cwd=ROOT, start_new_session=group)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:  # an overrun or an interrupt: leave no child behind
        if group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err


def wall_s(cmd, group=True) -> float:
    """Wall time of one fresh interpreter running ``cmd`` to completion."""
    t0 = perf_counter_ns()
    code, _, err = run_child(cmd, timeout=60, group=group)
    elapsed = (perf_counter_ns() - t0) / 1e9
    if code != 0:
        raise RuntimeError(f"{cmd} exited {code}: {err.decode()[-500:]}")
    return elapsed


def tail(latencies):
    """Latency with exactly TAIL_BEYOND samples above it, and its percentile.

    That is the highest percentile with at least TAIL_BEYOND samples beyond
    it.  With fewer samples the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def end_to_end(name, worker, peak_rss_kb):
    latencies = worker["scaled_ns"]
    tail_ns, tail_p = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(worker["scaled_setup_ns"]) / 1e9, "s"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    raw = worker["latencies_ns"]
    extra = {
        "tail_percentile": tail_p,
        "setup_probes": len(worker["setup_ns"]),
        "reference_ms": worker["reference_ms"],
        "wall_setup_s": statistics.median(worker["setup_ns"]) / 1e9,
        "wall_ops_per_s": len(raw) / (sum(raw) / 1e9),
        "wall_latency_p50_ms": statistics.median(raw) / 1e6,
        "wall_latency_tail_ms": tail(raw)[0] / 1e6,
    }
    return metrics, extra


def cold_start():
    """Median start-up times: interpreter with and without ``site``, and ``import fanobase.cli``."""
    exe = sys.executable
    probes = {"start": [exe, "-c", "pass"], "bare": [exe, "-S", "-c", "pass"],
              "cli": [exe, "-c", "import fanobase.cli"]}
    samples = {key: [] for key in probes}
    for _ in range(COLD_START_ROUNDS):
        for key, cmd in probes.items():
            samples[key].append(wall_s(cmd) * 1e3)
    start, bare, cli = (statistics.median(samples[key]) for key in probes)
    return {
        "interpreter.start_ms": (start, "ms"),
        "interpreter.bare_start_ms": (bare, "ms"),
        "cli.import_ms": (cli - start, "ms"),
    }


def per_layer(trace):
    ops = trace["ops"]
    stats, counts = trace["stats"], trace["counts"]

    def layer(label, members):
        calls = sum(stats[m][0] for m in members)
        self_ns = sum(stats[m][1] for m in members)
        raised = sum(stats[m][2] for m in members)
        return {
            f"{label}.calls": (calls / ops, "calls/op"),
            f"{label}.self_ms": (self_ns / 1e6 / ops, "ms/op"),
            f"{label}.failed": (raised / ops, "raised/op"),
        }

    metrics = {}
    for module in MODULES:
        metrics.update(layer(module, [k for k in stats if k.split(".")[0] == module]))
    for label in FUNCTIONS:
        metrics.update(layer(label, [label] if label in stats else []))

    def ratio(a, b):
        return a / b if b else 0.0

    infer_ns = stats.get("wps.infer_ring", [0, 0, 0])[1]
    metrics.update({
        "scroll.monomials_visited": (counts["monomials_visited"] / ops, "monomials/op"),
        "scroll.support_yield": (ratio(counts["support_size"], counts["support_visited"]), "ratio"),
        "scroll.chain_h0_calls": (ratio(counts["chain_h0_calls"], counts["walks"]), "calls/walk"),
        "wps.infer_ring.us_per_term": (ratio(infer_ns / 1e3, counts["infer_terms"]), "us/term"),
        "tracing.overhead_ratio": (trace["traced_ns"] / trace["untraced_ns"], "ratio"),
    })
    return metrics


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the result line's object and the recorded context."""
    code, out, err = run_child(
        [sys.executable, str(BENCH / "worker.py"), name, str(seed), str(seconds), str(int(trace))],
        timeout=WORKER_TIMEOUT_S,
    )
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {err.decode()[-2000:]}")
    # the worker is this process's first child, so the children's peak is its peak
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    worker = json.loads(out)
    attempted = worker["attempted"]
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.executable,
        "python_version": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "samples": len(worker["latencies_ns"]),
        "passes": worker["passes"],
        "failed_ratio": worker["failed"] / attempted,
        "failures": worker["failures"],
    }
    if trace:
        metrics = {**cold_start(), **per_layer(worker["trace"])}
    else:
        metrics, extra = end_to_end(name, worker, peak_rss_kb)
        context.update(extra)
    result = {
        "correct": worker["failed"] == 0,
        "attempted": attempted,
        "failed": worker["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, context


def print_run(result, context):
    print(f"workload {context['workload']}  seed {context['seed']}  trace {context['trace']}")
    for key, metric in result["metrics"].items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{context['tail_percentile']:.4g} of {context['samples']} samples)"
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  {'failed_ratio':<44} {context['failed_ratio']:>14.6g} "
          f"({result['failed']}/{result['attempted']})")
    for failure in context["failures"]:
        print(f"  FAILED {failure}")
    print("context " + json.dumps(context, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*ENTRY_MODULES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fanobase" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'fanobase'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so each reads only its own worker's peak memory
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in ENTRY_MODULES
        ]
        return max(codes)
    result, context = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_run(result, context)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
