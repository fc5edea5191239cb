"""Self-tests of the benchmark: seeded inputs repeat, and wrong kernels are caught.

    python3 bench/selftest.py

Exits 0 when every test passes.  It runs in a few seconds: each workload
contributes one pass, or a part of one, never a timed run.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fanobase.scroll  # noqa: E402
import fanobase.wps  # noqa: E402
from pace import REFERENCE_MS, Pace  # noqa: E402
from tracer import rebind, restore  # noqa: E402
from worker import operate  # noqa: E402
from workloads import WORKLOADS, ScrollLadder  # noqa: E402

IN_PROCESS = ("scroll-ladder", "cover-family", "wps-series")


def inputs(name, seed, passes=3) -> bytes:
    workload = WORKLOADS[name](seed)
    drawn = [workload.prelude()] + [workload.next_pass() for _ in range(passes)]
    return json.dumps(drawn).encode()


def failed_ratio(name, seed=3, limit=None) -> float:
    """Share of one pass's operations (the first ``limit`` of them) that fail."""
    workload = WORKLOADS[name](seed)
    batch = workload.next_pass()[:limit]
    failures = []
    for item in batch:
        operate(workload, item, failures)
    return len(failures) / len(batch)


@contextmanager
def mutated(original, mutant):
    """Every package binding of ``original`` calls ``mutant(original, ...)`` inside the block."""
    undo = []
    rebind({id(original): (original, lambda *a, **k: mutant(original, *a, **k))}, undo)
    try:
        yield
    finally:
        restore(undo)


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        assert inputs(name, 7) == inputs(name, 7), name
    for name in IN_PROCESS:
        assert inputs(name, 7) != inputs(name, 8), name


def test_no_query_repeats_within_a_run():
    workload = ScrollLadder(5)
    drawn = workload.prelude() + [q for _ in range(20) for q in workload.next_pass()]
    assert len({json.dumps(q) for q in drawn}) == len(drawn)


def test_correct_kernels_pass():
    for name in IN_PROCESS:
        assert failed_ratio(name, limit=40) == 0, name


def test_h0_plus_one_is_caught():
    with mutated(fanobase.scroll.h0, lambda h0, s, c: h0(s, c) + 1):
        assert failed_ratio("scroll-ladder", limit=40) > 0
        assert failed_ratio("cover-family") > 0


def test_wrong_fixed_component_is_caught():
    with mutated(fanobase.scroll.fixed_component_multiplicity, lambda f, *a: f(*a) + 1):
        assert failed_ratio("scroll-ladder", limit=40) > 0
        assert failed_ratio("cover-family") > 0


def test_wrong_series_is_caught():
    with mutated(fanobase.wps.hilbert_coeffs, lambda f, x, n: f(x, n)[:-1] + [f(x, n)[-1] + 1]):
        assert failed_ratio("wps-series", limit=4) > 0
    with mutated(fanobase.wps.infer_ring, lambda f, seq: (f(seq)[0] + (1,), f(seq)[1] + (1,))):
        assert failed_ratio("wps-series", limit=4) > 0


def test_verify_paper_oracle():
    workload = WORKLOADS["verify-paper"](1)
    argv = workload.prelude()[0]
    good = workload.reference
    assert workload.check(argv, (0, good)) is None
    assert workload.check(argv, (1, good)) is not None
    assert workload.check(argv, (0, good.replace(b"\"pass\": true", b"\"pass\": false", 1))) is not None
    assert workload.check(argv, (0, good.replace(b'"got": 4', b'"got": 5', 1))) is not None


def test_scaling_follows_the_reference():
    # reference timings 2x the nominal until t = 10, then 4x: an operation
    # takes half its wall time early on and a quarter late
    pace = Pace()
    pace.starts = list(range(20))
    pace.timings = [2 * REFERENCE_MS * 1e6] * 10 + [4 * REFERENCE_MS * 1e6] * 10
    assert pace.scale(2, 1000) == 500
    assert pace.scale(17, 1000) == 250
    assert pace.scale(100, 1000) == 250  # past the last timing: its neighbours


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {name} {exc}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
