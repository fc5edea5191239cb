"""Seeded inputs, operations and output oracles of the four workloads.

A workload object draws its inputs from ``random.Random`` seeded with
the workload name and the seed, one *pass* at a time, so the same seed
always yields the same input sequence.  ``run`` performs one operation
(the only part that is timed) and ``check`` compares its output with an
oracle computed here.  Oracles never call into ``fanobase``: they use
closed forms, an own series expansion, or a reference report built
before timing starts.  That keeps them independent of the kernel under
test and keeps them out of the per-layer trace.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, prod

# Kernels are called through their modules (``scroll.h0``), never through
# names bound here, so the tracer and the self-test's deliberately wrong
# kernels, which rebind module attributes, see every call.
from fanobase import __version__, classify, cover, report, scroll, wps
from fanobase.errors import EmptySystem
from fanobase.scroll import INFINITE, DivisorClass, Scroll
from run import BENCH, ROOT, package_env


def fiber_oracle(d, h, f, i):
    """Fiber multiplicity at coordinate point i by the closed form.

    A monomial with x_i-exponent k has coefficient degree at most
    k*d_i + (h-k)*D_i + f, where D_i is the largest other twist, so the
    multiplicity is h - max{k : k*d_i + (h-k)*D_i + f >= 0}, and the
    system is empty when no k qualifies.
    """
    di = d[i - 1]
    big = max(d[j] for j in range(len(d)) if j != i - 1)
    ks = [k for k in range(h + 1) if k * di + (h - k) * big + f >= 0]
    return h - max(ks) if ks else INFINITE


class VerifyPaper:
    """Fresh ``python -m fanobase.cli verify-paper --json`` processes.

    The input is the paper's thirteen-case table itself, so the seed
    selects nothing here.  The oracle is the in-process report, built
    once before timing, plus the expected summary.
    """

    name = "verify-paper"
    argv = ("verify-paper", "--json")
    summary = {"passed": 213, "failed": 0}

    def __init__(self, seed: int):
        self.tracer = None
        self.env = package_env()
        self.reference = (report.build_report(__version__).to_json() + "\n").encode()

    def prelude(self) -> list:
        # the first start after checkout also writes the bytecode caches
        return [list(self.argv)]

    def next_pass(self) -> list:
        return [list(self.argv)]

    def run(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fanobase.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=60)
        if self.tracer is not None and proc.stderr:
            self.tracer.merge(json.loads(proc.stderr.decode().splitlines()[-1]))
        return proc.returncode, proc.stdout

    def check(self, argv, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        try:
            summary = json.loads(stdout)["summary"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a verify-paper JSON report"
        if summary != self.summary:
            return f"summary {summary}, expected {self.summary}"
        if stdout != self.reference:
            return "JSON report differs from the in-process build_report().to_json()"
        return None


# Ladder rungs (rank, lowest h, highest h, queries per pass).  Monomials
# per enumeration, C(h+n-1, n-1): 31-91, 91-496, 496-2926, 1771-12341
# and 8855-14950.  Drawing h from a range makes the latency distribution
# continuous, so a percentile never sits on a gap between two rungs.  Each
# pass draws one h from each of ``count`` equal strata of a rung's range,
# so every pass, and every seed, sees the same spread of sizes.  The fixed
# counts give every pass the same mix and put the median in the middle of
# the second rung.  The top rung has one h per stratum, each in a fixed
# regime (see REGIMES), so every pass holds exactly one h = 20 query with
# B forced once or twice: the slowest kind, and in every run the tail
# (the 11th largest latency) falls among them, however many passes fit.
RUNGS = ((2, 30, 90, 24), (3, 12, 30, 40), (3, 30, 75, 12), (4, 20, 40, 4), (5, 19, 22, 4))
# One summit query per run at rank 6, h = 30 (324632 monomials, about 5 s
# per query today).  It is checked and sets peak_rss_mb, but it is not a
# timed sample: a single 5 s sample would make every time metric depend
# on how many passes fit around it.
SUMMIT = (6, 30)
# Class regimes, cycled per rung so every pass has the same mix: inside
# the Riemann-Roch range, outside it with B forced 1 or 2 times, an
# empty system, and d1 = d2 (B is not rigid, so no fixed-component walk).
REGIMES = ("rr", "partial", "empty", "tie")
TWIST_RANGE = (-2, 12)


class ScrollLadder:
    """In-process queries on random scrolls, no query repeated within a run."""

    name = "scroll-ladder"

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen = set()
        self.drawn = [0] * len(RUNGS)

    def prelude(self) -> list:
        return [self._query(*SUMMIT, "rr")]

    def next_pass(self) -> list:
        batch = []
        for r, (n, h_lo, h_hi, count) in enumerate(RUNGS):
            width = (h_hi - h_lo + 1) / count
            for j in range(count):
                h = h_lo + int((j + self.rng.random()) * width)
                batch.append(self._query(n, h, REGIMES[self.drawn[r] % len(REGIMES)]))
                self.drawn[r] += 1
        return batch

    def _query(self, n, h, regime):
        rng = self.rng
        while True:
            d = sorted((rng.randint(*TWIST_RANGE) for _ in range(n)), reverse=True)
            if regime == "tie":
                d[1] = d[0]
                f = rng.randint(-h * d[0], -h * d[-1] + 8)
            elif d[0] == d[1]:
                continue
            elif regime == "rr":
                f = -h * d[-1] + rng.randint(0, 8)
            elif regime == "partial":
                gap = d[0] - d[1]
                f = -h * d[1] - rng.randint(1, 2) * gap + rng.randrange(gap)
            else:
                f = -h * d[0] - 1 - rng.randint(0, 8)
            query = [d, h, f, rng.randint(1, n)]
            key = json.dumps(query)
            if key not in self.seen:
                self.seen.add(key)
                return query

    def run(self, query):
        d, h, f, i = query
        s = Scroll(d)
        c = DivisorClass(h, f)
        out = {
            "h0": scroll.h0(s, c),
            "support": scroll.monomial_support(s, c),
            "fiber": scroll.fiber_multiplicity_at(s, c, i),
            "delta": scroll.intersect(s, [DivisorClass(1, 0)] * len(d)),
        }
        if d[0] > d[1]:
            try:
                out["mu"] = scroll.fixed_component_multiplicity(s, DivisorClass(1, -d[0]), c)
            except EmptySystem:
                out["mu"] = "empty"
        return out

    def check(self, query, out):
        d, h, f, i = query
        n, delta = len(d), sum(d)
        empty = h * d[0] + f < 0
        if f + h * d[-1] >= 0:
            rr = comb(h + n - 1, n - 1) * (f + 1) + delta * comb(h + n - 1, n)
            if out["h0"] != rr:
                return f"{query}: h0 {out['h0']}, Riemann-Roch gives {rr}"
        by_support = sum(sum(a * b for a, b in zip(e, d)) + f + 1 for e in out["support"])
        if out["h0"] != by_support:
            return f"{query}: h0 {out['h0']}, sum over the support gives {by_support}"
        if out["fiber"] != fiber_oracle(d, h, f, i):
            return f"{query}: fiber multiplicity {out['fiber']}, closed form {fiber_oracle(d, h, f, i)}"
        if out["delta"] != delta:
            return f"{query}: O(1)^n = {out['delta']}, expected {delta}"
        if d[0] > d[1]:
            # B = {x_1 = 0} is forced min(e_1) times over the support; the
            # smallest e_1 with k*d1 + (h-k)*d2 + f >= 0 is a ceiling.
            mu = "empty" if empty else max(0, -((f + h * d[1]) // (d[0] - d[1])))
            if out["mu"] != mu:
                return f"{query}: fixed-component multiplicity {out['mu']}, expected {mu}"
        return None


M_RANGE = (13, 400)
SWEEP = 128


class CoverFamily:
    """``case_checks(cone_case(m))`` and ``analyze_cover(m)`` over a sweep of seeded m.

    One operation is a sweep over 128 values of m, half inside the table
    range 3..12 and half in the degenerate tail.  Every m costs about the
    same 0.4 ms, so the slowest operations are the ones a stall of the
    machine hit.  With sweeps of 32 m (about 10 ms) such stalls made the
    tail latency 1.3 to 2.5 times the median and spread it by a quarter
    across runs; in sweeps four times as long they weigh a quarter as much.
    """

    name = "cover-family"

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def prelude(self) -> list:
        return []

    def next_pass(self) -> list:
        rng = self.rng
        return [[rng.randint(3, 12) if j % 2 == 0 else rng.randint(*M_RANGE) for j in range(SWEEP)]]

    def run(self, sweep):
        return [(classify.case_checks(classify.cone_case(m)), cover.analyze_cover(m)) for m in sweep]

    def check(self, sweep, outs):
        for m, (checks, result) in zip(sweep, outs):
            in_table = 3 <= m <= 12
            if result.verdict.passed != in_table:
                return f"m = {m}: verdict {result.verdict.value}"
            if result.b_mult != (0 if m == 3 else 1):
                return f"m = {m}: b_mult {result.b_mult}"
            # the distinguished point has the smallest twist of F(m, m-4, 0)
            d = sorted((m, m - 4, 0), reverse=True)
            if result.fiber_mult != fiber_oracle(d, 4, 12 - 4 * m, 3):
                return f"m = {m}: fiber multiplicity {result.fiber_mult}"
            failing = [c.name for c in checks if not c.passed]
            expected = [] if in_table else ["branch analysis verdict"]
            if failing != expected:
                return f"m = {m}: failing checks {failing}, expected {expected}"
        return None


# (weights, relation degrees, anticanonical amplitude) of the table's models
TABLE_MODELS = (
    ((1, 1, 1, 2, 3), (6,), 2),
    ((1, 1, 1, 1, 2, 3), (2, 6), 1),
    ((1, 1, 1, 1, 3), (6,), 1),
)
TRUNCATION = (200, 300)
# generator counts of a pass's random models; fixed, like the truncation
# strata below, so that every pass costs about the same whatever the seed
RANDOM_SIZES = (4, 5, 6, 6, 7)


def expand(weights, rels, n_max):
    """Series of prod(1 - t^e) / prod(1 - t^w): numerator first, then each 1/(1 - t^w)."""
    coeffs = [1] + [0] * n_max
    for e in rels:
        for k in range(n_max, e - 1, -1):
            coeffs[k] -= coeffs[k - e]
    for w in weights:
        for k in range(w, n_max + 1):
            coeffs[k] += coeffs[k - w]
    return coeffs


class WpsSeries:
    """Long ``hilbert_coeffs`` expansions fed back through ``infer_ring``."""

    name = "wps-series"

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.passes = 0

    def prelude(self) -> list:
        return []

    def next_pass(self) -> list:
        rng = self.rng
        models = [(list(w), list(e)) for w, e, _ in TABLE_MODELS]
        for size in RANDOM_SIZES:
            weights = [rng.choice((1, 1, 1, 2, 2, 3, 4, 5)) for _ in range(size)]
            # each relation degree is a multiple of its own weight, so every
            # factor (1 - t^e)/(1 - t^w) is a polynomial with non-negative
            # coefficients and the series is a valid dimension sequence
            paired = rng.sample(range(size), rng.randint(0, 2))
            rels = sorted(weights[j] * rng.randint(2, 4) for j in paired)
            models.append((sorted(weights), rels))
        # one truncation from each of len(models) equal strata; the strata
        # rotate over the models from pass to pass, so every model meets
        # every stratum equally often
        lo, hi = TRUNCATION
        count = len(models)
        width = (hi - lo + 1) / count
        self.passes += 1
        return [[w, e, lo + int(((j + self.passes) % count + rng.random()) * width)]
                for j, (w, e) in enumerate(models)]

    def run(self, item):
        weights, rels, n_max = item
        series = wps.hilbert_coeffs(wps.WeightedCI(tuple(weights), tuple(rels)), n_max)
        return series, wps.infer_ring(series)

    def check(self, item, out):
        weights, rels, n_max = item
        series, (gens, found_rels) = out
        if series != expand(weights, rels, n_max):
            return f"{item}: hilbert_coeffs differs from the own expansion"
        if expand(gens, found_rels, n_max) != series:
            return f"{item}: inferred model {gens}/{found_rels} does not re-expand to the series"
        if set(gens) & set(found_rels):
            return f"{item}: inferred model {gens}/{found_rels} is not minimal"
        for w, e, amplitude in TABLE_MODELS:
            if (list(w), list(e)) == [weights, rels]:
                degree = Fraction(amplitude**3 * prod(e), prod(w))
                for k in range(n_max // amplitude + 1):
                    chi = (2 * k + 1) + k * (k + 1) * (2 * k + 1) * degree / 12
                    if series[amplitude * k] != chi:
                        return f"{item}: h0(-{k}K) = {series[amplitude * k]}, Riemann-Roch gives {chi}"
        return None


WORKLOADS = {w.name: w for w in (VerifyPaper, ScrollLadder, CoverFamily, WpsSeries)}
