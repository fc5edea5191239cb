"""Scroll linear systems, intersection numbers and support combinatorics.

The reference oracle for section counts enumerates every exponent tuple
with itertools.product and applies the degree count of line bundles on
the line directly; the library generates only the support, one
exponent range per coordinate, and counts sections by the band split
without generating it, so the routes share no code.  Serre duality on
the line (h0 = chi + h1) and a count of exponent vectors by weight are
further routes for h0, the latter fast enough for classes with about
10**8 exponent vectors.  The band walk, the band split as it stood
before ranks 2 and 3 were summed in closed form, recursing and summing
each tail by forward differences, checks the range sums and the
floor-sum route on bands of about 10**4 exponents, and direct sums
check the floor-sum helper itself.  Call counts, not timings, check
that the walk bound is taken once and that the depths stay within
their bounds.  The full expansion of the intersection
product, one term per class, checks its one-pass recurrence, and ``h0``
checks the closed-form rigidity test of the fixed-component count.
"""

import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from math import comb

import pytest

from fanobase import (
    INFINITE,
    ArityMismatch,
    DivisorClass,
    EmptySystem,
    FanobaseError,
    IndexOutOfRange,
    NegativeDegree,
    NegativeTwist,
    NotRigid,
    Scroll,
    TooFewSummands,
    analyze_cover,
    canonical_class,
    fiber_multiplicity_at,
    fixed_component_multiplicity,
    h0,
    intersect,
    minimal_degree_data,
    monomial_support,
    restrict_to_subscroll,
)
from fanobase import scroll as scroll_module
from fanobase.errors import BandTooWide
from fanobase.scroll import TABLE_DEGREE, WALK_BUDGET, _floor_sums, _walk_bound, support_size

C = DivisorClass


def oracle_h0(twists, h, f):
    """Brute-force lattice-point count over all exponent tuples."""
    if h < 0:
        return 0
    total = 0
    for e in product(range(h + 1), repeat=len(twists)):
        if sum(e) != h:
            continue
        t = sum(ei * di for ei, di in zip(e, twists)) + f
        if t >= 0:
            total += t + 1
    return total


def oracle_support(twists, h, f):
    """Every exponent tuple of degree h with e . d + f >= 0: the first n - 1 exponents from
    itertools.product, the last what is left of the degree."""
    return {
        e
        for head in product(range(h + 1), repeat=len(twists) - 1)
        if sum(head) <= h
        for e in (head + (h - sum(head),),)
        if sum(ei * di for ei, di in zip(e, twists)) + f >= 0
    }


def riemann_roch(twists, h, f):
    """chi of (h, f) for h >= 0: every monomial counted with e . d + f + 1, sign included."""
    n = len(twists)
    return comb(h + n - 1, n - 1) * (f + 1) + sum(twists) * comb(h + n - 1, n)


def serre_h0(twists, h, f):
    """Second route: h0 = chi + h1, h1 summing -(e . d + f) - 1 off the support."""
    if h < 0:
        return 0
    h1 = 0
    for e in product(range(h + 1), repeat=len(twists)):
        if sum(e) == h:
            h1 += max(0, -(sum(ei * di for ei, di in zip(e, twists)) + f) - 1)
    return riemann_roch(twists, h, f) + h1


def weight_count_h0(twists, h, f):
    """Third route: count the exponent vectors of degree h by weight e . d, then weigh each."""
    low = min(twists)
    # counts[a][w]: exponent vectors of degree a over the twists so far, weight w + a*low
    counts = [[0] * (h * (max(twists) - low) + 1) for _ in range(h + 1)]
    counts[0][0] = 1
    for d in twists:
        step = d - low
        for a in range(1, h + 1):
            row, below = counts[a], counts[a - 1]
            for w in range(step, len(row)):
                row[w] += below[w - step]
    return sum(c * max(0, w + h * low + f + 1) for w, c in enumerate(counts[h]))


def walk_fixed_component(s, comp, sys):
    """The h0-chain walk: subtract comp while h0 stays put (comp rigid, |sys| non-empty)."""
    base = h0(s, sys)
    mu = 0
    while h0(s, sys - (mu + 1) * comp) == base:
        mu += 1
    return mu


def band_walk_count(d, h, f, weighted):
    """Fourth route: the band split that walks every band one x_1-exponent at a time, down to rank 1."""
    if h < 0:
        return 0
    n, dn = len(d), d[-1]
    if f + h * dn >= 0:
        size = comb(h + n - 1, n - 1)
        return size * (f + 1) + sum(d) * comb(h + n - 1, n) if weighted else size
    if n == 1:
        return 0
    d1, rest = d[0], d[1:]
    # x_1-exponents of the support: k*d1 + (h - k)*d2 + f >= 0, so lo..h
    g0, slope = h * d[1] + f, d1 - d[1]
    lo = max(0, -(g0 // slope)) if slope else (0 if g0 >= 0 else h + 1)
    if lo > h:
        return 0
    k_t = max(lo, -((f + h * dn) // (d1 - dn)))
    tail = h + 1 - k_t
    total = 0
    for k in range(lo, h + 1 if tail <= n else k_t):
        total += band_walk_count(rest, h - k, f + k * d1, weighted)
    if tail <= n:
        return total
    values = [band_walk_count(rest, h - k, f + k * d1, weighted) for k in range(k_t, k_t + n)]
    for i in range(n):
        total += values[0] * comb(tail, i + 1)
        values = [b - a for a, b in zip(values, values[1:])]
    return total


def expanded_intersect(s, classes):
    """Second route for intersect: delta * prod(h_i) + sum_i f_i * prod_{j != i} h_j, term by term."""
    prod_h = 1
    for c in classes:
        prod_h *= c.h
    mixed = 0
    for i, c in enumerate(classes):
        term = c.f
        for j, other in enumerate(classes):
            if j != i:
                term *= other.h
        mixed += term
    return s.delta() * prod_h + mixed


# ---------------------------------------------------------------- basics


def test_constructor_sorts_and_validates():
    assert Scroll(0, 5, 1).twists == (5, 1, 0)
    assert Scroll([3, -1, 0]).twists == (3, 0, -1)
    assert Scroll(4, 0).rank == 2
    assert Scroll(5, 1, 0).delta() == 6
    with pytest.raises(FanobaseError):
        Scroll(4)
    with pytest.raises(FanobaseError):
        Scroll("4", 0)
    # the one-iterable form takes a list or a tuple: a set or a dict has no order of
    # twists, and both were once read in their iteration order, as F(5,1,0) and F(5,1)
    for twists in ({0, 5, 1}, {5: 0, 1: 0}):
        with pytest.raises(FanobaseError):
            Scroll(twists)


def test_divisor_class_arithmetic():
    assert C(3, -2) + C(1, 5) == C(4, 3)
    assert C(3, -2) - C(1, 5) == C(2, -7)
    assert 2 * C(1, -5) == C(2, -10)
    assert -C(1, -5) == C(-1, 5)


# --------------------------------------------------------------------- h0


def test_h0_examples():
    assert h0(Scroll(7, 3), C(1, -7)) == 1
    assert h0(Scroll(9, 2), C(0, 0)) == 1
    assert h0(Scroll(5, 1, 0), C(4, -8)) == 43  # oracle_h0((5,1,0), 4, -8)
    assert h0(Scroll(5, 1, 0), C(-1, 3)) == 0


def test_h0_matches_oracle_on_random_classes():
    rng = random.Random(20260809)
    for _ in range(200):
        rank = rng.randint(2, 4)
        twists = tuple(rng.randint(-4, 9) for _ in range(rank))
        h = rng.randint(0, 5)
        f = rng.randint(-25, 25)
        s = Scroll(twists)
        assert h0(s, C(h, f)) == oracle_h0(s.twists, h, f)
        assert monomial_support(s, C(h, f)) == oracle_support(s.twists, h, f)


def test_h0_riemann_roch_regime():
    # every monomial counts once f + h*d_n >= 0: N*(f + 1) plus delta*h*N/n
    rng = random.Random(20261101)
    for _ in range(150):
        s = Scroll(tuple(rng.randint(-5, 9) for _ in range(rng.randint(2, 6))))
        n = s.rank
        h = rng.randint(0, 12 - n)
        f = -h * s.twists[-1] + rng.randint(0, 20)
        expected = comb(h + n - 1, n - 1) * (f + 1) + s.delta() * comb(h + n - 1, n)
        assert h0(s, C(h, f)) == expected, (s, h, f)


def test_large_degree_visits_only_the_support():
    # C(10**6 + 2, 2) exponent vectors, none of them in the support
    empty = C(10**6, -6 * 10**6)
    assert h0(Scroll(5, 1, 0), empty) == 0
    assert monomial_support(Scroll(5, 1, 0), empty) == set()
    # 10**9 + 1 exponent vectors, one in the support
    assert h0(Scroll(1, 0), C(10**9, -(10**9))) == 1
    assert monomial_support(Scroll(1, 0), C(10**9, -(10**9))) == {(10**9, 0)}


def test_h0_serre_duality_on_the_line():
    # h0 - h1 = chi: the complement of the support carries h1 = sum of -(e . d + f) - 1
    rng = random.Random(20261102)
    outside = 0
    for _ in range(200):
        s = Scroll(tuple(rng.randint(-5, 9) for _ in range(rng.randint(2, 4))))
        h, f = rng.randint(-1, 6), rng.randint(-40, 20)
        assert h0(s, C(h, f)) == serre_h0(s.twists, h, f), (s, h, f)
        outside += h0(s, C(h, f)) != riemann_roch(s.twists, h, f)
    assert outside >= 50


def test_band_split_matches_support_sum():
    # the band split against the generated support, ties d1 = d2 and negative twists included;
    # h = -1 has no support (monomial_support refuses it)
    rng = random.Random(20261103)
    ties = 0
    for _ in range(600):
        d = sorted((rng.randint(-6, 9) for _ in range(rng.randint(2, 5))), reverse=True)
        if rng.random() < 0.3:
            d[1] = d[0]
        ties += d[0] == d[1]
        s, h, f = Scroll(d), rng.randint(-1, 8), rng.randint(-60, 30)
        support = monomial_support(s, C(h, f)) if h >= 0 else set()
        weights = [sum(a * b for a, b in zip(e, s.twists)) + f for e in support]
        assert h0(s, C(h, f)) == sum(t + 1 for t in weights), (s, h, f)
        assert support_size(s, C(h, f)) == len(support), (s, h, f)
    assert ties >= 100


def test_support_matches_oracle_at_higher_rank():
    # ranks 5 and 6, ties forced at both ends: d_(n-1) = d_n is the closed-form last level
    rng = random.Random(20261105)
    ties = empty = degree_zero = 0
    for _ in range(150):
        n = rng.randint(5, 6)
        d = sorted((rng.randint(-4, 9) for _ in range(n)), reverse=True)
        if rng.random() < 0.5:
            d[1] = d[0]
        if rng.random() < 0.5:
            d[-2] = d[-1]
        ties += d[0] == d[1] and d[-2] == d[-1]
        s, h, f = Scroll(d), rng.randint(0, 10 - n), rng.randint(-30, 10)
        support = monomial_support(s, C(h, f))
        assert support == oracle_support(s.twists, h, f), (s, h, f)
        assert support_size(s, C(h, f)) == len(support), (s, h, f)
        empty += not support
        degree_zero += h == 0
    assert ties >= 15 and empty >= 10 and degree_zero >= 10


def test_support_matches_oracle_with_a_middle_tie():
    # ranks 3 and 4 with d_(n-2) = d_(n-1): the comprehension's level and the one above it tie
    rng = random.Random(20261106)
    nonempty = 0
    for _ in range(300):
        n = rng.randint(3, 4)
        d = sorted((rng.randint(-4, 9) for _ in range(n)), reverse=True)
        d[-3] = d[-2]
        s, h, f = Scroll(d), rng.randint(0, 12 - 2 * n), rng.randint(-40, 15)
        support = monomial_support(s, C(h, f))
        assert support == oracle_support(s.twists, h, f), (s, h, f)
        nonempty += len(support) > 1
    assert nonempty >= 100


@pytest.mark.parametrize("untied, tied", [((7, 2), (4, 4)), ((9, 5, 0), (6, 6, 1)), ((9, 6, 2, 0), (6, 6, 3, -1))],
                         ids=["rank-2", "rank-3", "rank-4"])
def test_support_matches_oracle_across_the_table_degree(untied, tied):
    # degrees 38..42 straddle TABLE_DEGREE = 40, the last degree whose pairs and triples the
    # fill keeps: a class in the Riemann-Roch regime, one whose band is x_1-exponent 0 alone
    # (P = 1), one with a wide band (x_1 forced once, so lo = 1 < k_t) and one with d1 = d2;
    # a second call reads the tables the first one left
    n = len(untied)
    for h in range(38, 43):
        full = comb(h + n - 1, n - 1)
        for d, f, size in (
            (untied, -h * untied[-1] + 3, lambda size: size == full),
            (untied, -h * untied[-1] - 1, lambda size: 0 < size < full),
            (untied, -h * untied[1] - (untied[0] - untied[1]), lambda size: 0 < size < full),
            (tied, -h * (tied[0] + tied[-1]) // 2, lambda size: 0 < size <= full),
        ):
            support = monomial_support(Scroll(d), C(h, f))
            assert size(len(support)) and support == oracle_support(d, h, f), (d, h, f)
            assert monomial_support(Scroll(d), C(h, f)) == support, (d, h, f)
            assert {h for _, h in scroll_module._SIMPLEX} <= set(range(TABLE_DEGREE + 1))


def _regimes(d: tuple, h: int) -> tuple:
    """f for (h, f) on F(d), d1 > dn: Riemann-Roch, P = 1, and k_t = h (P = (h - 1)*(d1 - dn) + 1)."""
    return -h * d[-1] + 2, -h * d[-1] - 1, -h * d[-1] - (h - 1) * (d[0] - d[-1]) - 1


def test_riemann_roch_blocks_are_the_tables_own_tuples():
    # at the top level with h <= TABLE_DEGREE the monomials whose rest (h - e_1, f + e_1*d1)
    # holds every monomial of its degree are inserted as the objects of the simplex tables,
    # not as copies: on rank 3 those with e_1*d1 + (h - e_1)*d3 + f >= 0, on rank 2 all
    checked = Counter()
    for d in ((9, 5, 0), (7, 3, -2), (7, 2), (5, -2)):
        for h in range(TABLE_DEGREE + 1):
            table = {id(t) for t in scroll_module._simplex(len(d), h, 0)}
            for f in _regimes(d, h):
                support = monomial_support(Scroll(d), C(h, f))
                block = [e for e in support if e[0] * d[0] + (h - e[0]) * d[-1] + f >= 0]
                assert all(id(e) in table for e in block), (d, h, f)
                checked[len(d), h == TABLE_DEGREE, len(block) < len(support)] += len(block)
    # the rank-2 supports and rank-3 blocks at h = 40 are among them, on rank 3 beside a band too
    assert checked[2, True, False] and checked[3, True, False] and checked[3, True, True], checked


@pytest.mark.parametrize("untied, tied", [((7, 2), (4, 4)), ((5, -2), (3, 3)),
                                          ((9, 5, 0), (6, 6, 1)), ((7, 3, -2), (4, 4, -1))],
                         ids=["rank-2", "rank-2-negative", "rank-3", "rank-3-negative"])
def test_fill_matches_oracle_at_every_degree_to_past_the_table(untied, tied):
    # every h in 0..42, in the Riemann-Roch regime, at P = 1, with k_t = h (the table slice is
    # the one monomial x_1^h) and with d1 = d2
    for h in range(TABLE_DEGREE + 3):
        classes = [(untied, f) for f in _regimes(untied, h)] + [(tied, -h * (tied[0] + tied[-1]) // 2)]
        for d, f in classes:
            assert monomial_support(Scroll(d), C(h, f)) == oracle_support(d, h, f), (d, h, f)


def test_fill_with_every_twist_equal():
    # on F(a, ..., a) every monomial of degree h weighs h*a + f, so (h, -h*a) has P = 0 and the
    # whole simplex as support; d1 = dn leaves no band to split, even with P = 0 on its edge
    rank_three = (0, 1, 5, TABLE_DEGREE, TABLE_DEGREE + 2)
    for d, degrees in (((2, 2, 2), rank_three), ((-1, -1, -1), rank_three), ((3, 3, 3, 3), (0, 1, 5, 12))):
        for h in degrees:
            for f in (-h * d[0], -h * d[0] - 1):
                assert monomial_support(Scroll(d), C(h, f)) == oracle_support(d, h, f), (d, h, f)


def test_fill_above_the_table_degree_stays_linear_in_the_output():
    # three monomials of degree 10**6: the pairs are built for the call, none of the 10**6 + 1
    # pairs of the degree is, and the tables keep only degrees up to TABLE_DEGREE
    tracemalloc.start()
    try:
        support = monomial_support(Scroll(1, 0), C(10**6, -10**6 + 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert support == {(999998, 2), (999999, 1), (1000000, 0)}
    assert peak < 64 * 1024
    assert {h for _, h in scroll_module._SIMPLEX} <= set(range(TABLE_DEGREE + 1))


def test_floor_sums_match_direct_sums():
    def direct(n, a, b, c):
        q = [(a * x + b) // c for x in range(n)]
        return sum(q), sum(x * v for x, v in enumerate(q)), sum(v * v for v in q)

    # a = 0, a >= c, b >= c and n = 0 included
    for args in product(range(12), range(10), range(12), range(1, 8)):
        assert _floor_sums(*args) == direct(*args), args
    rng = random.Random(20261107)
    for _ in range(200):
        args = rng.randint(0, 3000), rng.randint(0, 10**7), rng.randint(0, 10**7), rng.randint(1, 10**6)
        assert _floor_sums(*args) == direct(*args), args


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("k, digits", [(702, 150), (1002, 215)])
def test_floor_sums_walk_a_long_euclid_chain(k, digits):
    # consecutive Fibonacci twists give a Euclid chain of about k steps, past
    # the interpreter's frame limit at k = 1002; second route: the support of
    # (h, f) is what h0 loses from f down to f - 1
    s, h = Scroll(_fibonacci(k), _fibonacci(k - 1), 0), 10**digits
    f = -(h * _fibonacci(k - 1) // 2)
    size = support_size(s, C(h, f))
    assert size > 0
    assert h0(s, C(h, f)) - h0(s, C(h, f - 1)) == size


def test_band_split_matches_band_walk():
    # rank 3 with bands up to about 10**4 exponents, rank 4 with smaller ones;
    # ties d1 = d2 and d2 = d3 and negative twists included
    rng = random.Random(20261108)
    ties = {0: 0, 1: 0}
    wide = 0
    for n, cases, top in ((3, 60, 20000), (4, 40, 150)):
        for _ in range(cases):
            d = sorted((rng.randint(-3, 9) for _ in range(n)), reverse=True)
            tie = rng.randrange(3)
            if tie < 2:
                d[tie + 1] = d[tie]
                ties[tie] += 1
            h = int(top ** rng.random())
            # between the largest and the smallest weight per monomial, so the band is rarely empty
            f = -h * rng.randint(d[-1], d[0]) - rng.randint(0, 3)
            s = Scroll(d)
            assert h0(s, C(h, f)) == band_walk_count(s.twists, h, f, True), (s, h, f)
            assert support_size(s, C(h, f)) == band_walk_count(s.twists, h, f, False), (s, h, f)
            if n == 3 and d[0] > d[2] and f + h * d[0] >= 0:
                # the band is lo <= k < k_t (module docstring of fanobase.scroll)
                lo = max(0, -((h * d[1] + f) // (d[0] - d[1]))) if d[0] > d[1] else 0
                wide += -((f + h * d[2]) // (d[0] - d[2])) - lo >= 4000
    assert ties[0] >= 20 and ties[1] >= 20 and wide >= 3


def test_weighted_and_unweighted_counts_agree_at_huge_classes():
    # h0(h, f) - h0(h, f - 1) counts the support of (h, f): one less section per monomial
    s = Scroll(5, 1, 0)
    for h in (10**9, 10**12):
        c = C(h, -2 * h)
        size = support_size(s, c)
        assert 0 < size < comb(h + 2, 2)
        assert h0(s, c) - h0(s, c - C(0, 1)) == size


def test_large_classes_answer_promptly():
    # about 5 * 10**11 support monomials, all of them: the Riemann-Roch value
    assert h0(Scroll(5, 1, 0), C(10**6, 0)) == riemann_roch((5, 1, 0), 10**6, 0)
    assert support_size(Scroll(5, 1, 0), C(10**6, 0)) == comb(10**6 + 2, 2)
    # C(105, 5), about 9.6 * 10**7 exponent vectors, against the weight count
    s = Scroll(9, 4, 2, 1, 0, 0)
    assert h0(s, C(100, -150)) == weight_count_h0(s.twists, 100, -150)


def _range_sums(log: list):
    """(lo, args) per ``_range_sum`` call in a probe log of ``_exponent_range`` and ``_range_sum``.

    A count reads the x_1-range of each class it pops, then takes the
    range sum over k_t..hi at the class's rank, so lo is the least
    x_1-exponent from the ``_exponent_range`` call before.
    """
    for name, args, result in log:
        if name == "_exponent_range":
            span = result
        elif name == "_range_sum":
            yield span[0], args


def _closed_forms(log: list) -> list:
    """Per rank-4 class that walks a band, the k_t - lo rank-3 closed forms it evaluates."""
    return [a - lo for lo, (n, _, _, _, _, a, _, _) in _range_sums(log) if n == 4 and a > lo]


def _band(d: tuple, h: int, f: int) -> tuple:
    """(lo, k_t): the first x_1-exponent of the support and the end of the walked band."""
    lo = scroll_module._exponent_range(d, h, f, 1)[0]
    return lo, max(lo, -((f + h * d[-1]) // (d[0] - d[-1])))


def test_walk_bound_covers_the_walk(probe):
    # count the rank-3 closed forms a rank 4-6 count evaluates; the bound checked
    # before the walk is never below it, and the count still matches the band walk
    rng = random.Random(20261119)
    log = probe(scroll_module, "_exponent_range", "_range_sum")
    walked = 0
    for _ in range(60):
        n = rng.randint(4, 6)
        d = sorted((rng.randint(-2, 9) for _ in range(n)), reverse=True)
        h = rng.randint(0, 14 if n < 6 else 8)
        f = -h * rng.randint(d[-1], d[0]) - rng.randint(0, 3)
        log.clear()
        assert h0(Scroll(d), C(h, f)) == band_walk_count(tuple(d), h, f, True), (d, h, f)
        walk = _closed_forms(log)
        span = scroll_module._exponent_range(tuple(d), h, f, 1)
        if walk and span is not None:
            lo, k_t = _band(tuple(d), h, f)
            assert sum(walk) <= _walk_bound(tuple(d), h, f, lo, k_t), (d, h, f)
            walked += sum(walk) > 0
    assert walked >= 20


# a rank-5 walk whose bound is attained: one x_1-exponent, whose rank-4 walk
# evaluates 2 closed forms, against a width min(h - lo + 1, ceil(p / (d2 - dn)))
# = min(3, 2); a width term h - lo - 1 = 1 would bound it by 1
TIGHT_WALK = (2, 1, 1, 0, -1), 2, -1


def test_walk_bound_is_attained_at_rank_five(probe):
    d, h, f = TIGHT_WALK
    log = probe(scroll_module, "_exponent_range", "_range_sum")
    assert h0(Scroll(d), C(h, f)) == band_walk_count(d, h, f, True)
    assert _band(d, h, f) == (0, 1)
    assert _closed_forms(log) == [2] and _walk_bound(d, h, f, 0, 1) == 2


def test_walk_at_the_budget_answers(monkeypatch):
    # the budget refuses a walk whose bound is over it, not one at it
    d, h, f = TIGHT_WALK
    monkeypatch.setattr(scroll_module, "WALK_BUDGET", 2)
    assert h0(Scroll(d), C(h, f)) == band_walk_count(d, h, f, True)
    assert support_size(Scroll(d), C(h, f)) == band_walk_count(d, h, f, False)
    monkeypatch.setattr(scroll_module, "WALK_BUDGET", 1)
    for count in (h0, support_size):
        with pytest.raises(BandTooWide):
            count(Scroll(d), C(h, f))


def test_wide_rank_four_walk_is_refused():
    # a band of 400 000 exponents at rank 4: refused before the walk, for h0 and the support size
    s, c = Scroll(5, 3, 1, 0), C(10**6, -2 * 10**6)
    for count in (h0, support_size):
        with pytest.raises(BandTooWide):
            count(s, c)
    # wide walks inside the benchmark's ladder envelope (ranks 4-6, h <= 40, twists -2..12) answer
    for d, f in (((4, 3, 1, 0), -120), ((12, 11, 10, 9, -2), -440), ((12, 11, 10, 9, 8, -2), -440),
                 ((12, 11, 10, 9, 8, -2), -400)):
        lo, k_t = _band(d, 40, f)
        assert 0 < _walk_bound(d, 40, f, lo, k_t) <= 41**3 < WALK_BUDGET
        assert h0(Scroll(d), C(40, f)) == weight_count_h0(d, 40, f), (d, f)


def test_rank_three_rests_take_the_floor_sums(probe):
    # the band of (10^k, -2*10^k) on F(5,3,1,0) is 4*10^(k-1) exponents wide, and each
    # rank-3 rest is summed in closed form: one range sum per exponent plus the class
    # asked; a rest walked down to rank 2 would cost one per pair of exponents
    log = probe(scroll_module, "_range_sum")
    for k, sums in ((2, 41), (3, 401)):
        log.clear()
        h0(Scroll(5, 3, 1, 0), C(10**k, -2 * 10**k))
        assert len(log) == sums, (k, len(log))


def test_walk_bound_is_checked_once_on_the_class_asked(probe):
    # every class deeper in a rank 4-7 walk has a bound at most the top one
    # (docstring of _walk_bound), so one check per count covers the whole walk
    rng = random.Random(20261201)
    log = probe(scroll_module, "_walk_bound", "_exponent_range", "_range_sum")
    deep = 0
    for _ in range(150):
        n = rng.randint(4, 7)
        d = tuple(sorted((rng.randint(-2, 9) for _ in range(n)), reverse=True))
        h = rng.randint(0, 10 if n < 6 else 6)
        f = -h * rng.randint(d[-1], d[0]) - rng.randint(0, 3)
        for weighted, count in ((True, h0), (False, support_size)):
            log.clear()
            assert count(Scroll(d), C(h, f)) == band_walk_count(d, h, f, weighted), (d, h, f)
            checked = [len(args[0]) for name, args, _ in log if name == "_walk_bound"]
            # a class of rank n >= 4 sums k_t..hi; its twists are the last n of the count's d
            bounds = [_walk_bound(d[-n:], h, f, lo, max(lo, -((f + h * d[-1]) // (d1 - d[-1]))))
                      for lo, (n, d1, _, h, f, _, _, _) in _range_sums(log) if n >= 4 and f + h * d[-1] < 0]
            assert checked == ([n] if bounds else []), (d, h, f)
            assert max(bounds[1:], default=0) <= max(bounds[:1], default=0), (d, h, f, bounds)
            deep += len(bounds) > 1
    assert deep >= 100


def _chain(n: int) -> Scroll:
    """F(2, 1, ..., 1, 0) with n twists."""
    return Scroll((2,) + (1,) * (n - 2) + (0,))


@pytest.mark.parametrize("n", [600, 2000, 5000, 20000, 50000])
def test_long_chain_has_no_recursion_limit(n):
    # hand count of (2, -3): the support is x_1^2, of weight 2, and x_1*x_j, of
    # weight 1, for each middle j; the walk goes down one rank per level
    s, c = _chain(n), C(2, -3)
    assert h0(s, c) == n and support_size(s, c) == n - 1
    if n <= 2000:  # at rank 5000 the support alone holds 25 million exponents
        middle = {(1,) + (0,) * (j - 1) + (1,) + (0,) * (n - j - 1) for j in range(1, n - 1)}
        assert monomial_support(s, c) == {(2,) + (0,) * (n - 1)} | middle


@pytest.mark.parametrize("n", [300, 2000])
def test_long_empty_band_answers_in_closed_form(n):
    # O(10**6) - F on F(1, 0, ..., 0): each monomial weighs e_1, summed C(h + n - 1, n)
    h = 10**6
    assert h0(Scroll((1,) + (0,) * (n - 1)), C(h, -1)) == comb(h + n - 1, n)


def test_chain_walks_read_one_range_per_class(probe):
    # the count pops at most one class per rank, the support walk at most two per monomial
    log = probe(scroll_module, "_exponent_range")
    assert h0(_chain(5000), C(2, -3)) == 5000
    assert 0 < len(log) <= 5000
    log.clear()
    assert len(monomial_support(_chain(600), C(2, -3))) == 599
    assert 0 < len(log) <= 2 * 599
    # a rank-3 class takes its whole band lo <= e_1 < k_t in one comprehension, so its
    # rests are no classes of their own and the fill reads one range
    for d, h, f in (((9, 5, 0), 10, -20), ((7, 3, -2), 12, -30), ((9, 5, 0), TABLE_DEGREE + 5, -100)):
        lo = scroll_module._exponent_range(d, h, f, 1)[0]
        assert lo < -((f + h * d[-1]) // (d[0] - d[-1])), (d, h, f)  # lo < k_t: the band is not empty
        log.clear()
        assert monomial_support(Scroll(d), C(h, f)) == oracle_support(d, h, f), (d, h, f)
        assert [len(args[0]) for _, args, _ in log] == [3], (d, h, f)


def test_support_blocks_of_degree_zero_are_one_monomial(probe):
    # (1, 0) on F(1, 0, ..., 0) is one block; peeled, each rest of degree 0 is its one
    # monomial, and only the last block of rank 4 reaches rank 3, as two triple blocks
    log = probe(scroll_module, "_simplex")
    assert len(monomial_support(Scroll((1,) + (0,) * 599), C(1, 0))) == 600
    assert sorted(args for _, args, _ in log) == [(3, 0, 0), (3, 1, 0)]


def test_floor_sum_levels_grow_linearly_in_the_digits(probe):
    # each Euclid level of _floor_sums takes two divmods; consecutive Fibonacci
    # twists make the longest chain, random rank-3 classes a typical one
    divmods = probe(scroll_module, "divmod")
    rng = random.Random(20261202)
    for digits in (10, 30, 100, 300):
        k = digits * 4785 // 1000
        classes = [((_fibonacci(k + 1), _fibonacci(k), 0), 10**digits, -(10**digits * _fibonacci(k) // 2))]
        for _ in range(20):
            d = sorted((rng.randrange(10**digits) for _ in range(3)), reverse=True)
            h = rng.randrange(10**digits)
            classes.append((d, h, -h * rng.randint(d[2], d[0])))
        most = 0
        for d, h, f in classes:
            divmods.clear()
            h0(Scroll(d), C(h, f))
            assert max(len(str(abs(v))) for v in (*d, h)) <= digits + 1
            most = max(most, len(divmods) // 2)
        assert digits < most <= 5 * digits + 10, (digits, most)


def test_multiplicities_reach_no_count(probe):
    # the fiber and fixed-component multiplicities and the cover pipeline read
    # exponent ranges only: no section count behind them
    counts = probe(scroll_module, "_count")
    rng = random.Random(20261203)
    for _ in range(200):
        n = rng.randint(2, 6)
        d = sorted((rng.randint(-3, 9) for _ in range(n)), reverse=True)
        h = rng.randint(0, 12)
        c = C(h, -h * rng.randint(d[-1], d[0]) - rng.randint(0, 3))
        for i in range(1, n + 1):
            fiber_multiplicity_at(Scroll(d), c, i)
        if d[0] > d[1] and scroll_module._exponent_range(tuple(d), c.h, c.f, 1) is not None:
            fixed_component_multiplicity(Scroll(d), C(1, -d[0]), c)
    for m in range(3, 41):
        analyze_cover(m)
    assert counts == []
    h0(Scroll(5, 1, 0), C(4, -8))  # the probe sees a count
    assert len(counts) == 1


def test_weight_count_route_agrees_with_oracle():
    rng = random.Random(20261104)
    for _ in range(100):
        twists = tuple(rng.randint(-4, 8) for _ in range(rng.randint(2, 4)))
        h, f = rng.randint(0, 5), rng.randint(-30, 20)
        assert weight_count_h0(twists, h, f) == oracle_h0(twists, h, f)


# ---------------------------------------------------------------- support


def test_support_examples():
    assert monomial_support(Scroll(13, 9, 0), C(4, -40)) == {
        (4, 0, 0),
        (3, 1, 0),
        (2, 2, 0),
        (1, 3, 0),
    }
    assert monomial_support(Scroll(5, 1, 0), C(0, 0)) == {(0, 0, 0)}
    assert monomial_support(Scroll(4, 0), C(1, -5)) == set()
    with pytest.raises(NegativeDegree):
        monomial_support(Scroll(4, 0), C(-1, 0))


def test_h0_bounds_support():
    rng = random.Random(7)
    for _ in range(150):
        s = Scroll(rng.randint(-3, 8), rng.randint(-3, 8), rng.randint(-3, 8))
        c = C(rng.randint(0, 4), rng.randint(-15, 15))
        support = monomial_support(s, c)
        sections = h0(s, c)
        assert sections >= len(support)
        tight = all(
            sum(ei * di for ei, di in zip(e, s.twists)) + c.f == 0 for e in support
        )
        assert (sections == len(support)) == tight
    # a tight instance: the unique monomial has coefficient degree zero
    assert h0(Scroll(1, 0), C(1, -1)) == len(monomial_support(Scroll(1, 0), C(1, -1))) == 1


# -------------------------------------------------------------- intersect


def test_intersect_examples():
    assert intersect(Scroll(5, 1, 0), [C(1, 0)] * 3) == 6  # 2m - 4 at m = 5
    assert intersect(Scroll(5, 1, 0), [C(3, -3), C(1, -5), C(1, 0)]) == 0
    assert intersect(Scroll(4, 0, 0), [C(3, 0), C(1, -4), C(0, 1)]) == 3
    with pytest.raises(ArityMismatch):
        intersect(Scroll(5, 1, 0), [C(1, 0), C(1, 0)])
    # a tuple is read like the list; a generator is refused, as is any other iterable
    s = Scroll(5, 1, 0)
    assert intersect(s, (C(1, 0),) * 3) == 6
    for classes in ((C(1, 0) for _ in range(3)), 5):
        with pytest.raises(FanobaseError):
            intersect(s, classes)


def test_intersect_matches_full_expansion():
    # ranks 2-6, negative twists, and classes with h = 0 (which zero most products)
    rng = random.Random(20261118)
    zeros = 0
    for _ in range(400):
        rank = rng.randint(2, 6)
        s = Scroll(tuple(rng.randint(-6, 9) for _ in range(rank)))
        classes = [C(rng.choice((0, rng.randint(-5, 6))), rng.randint(-12, 12)) for _ in range(rank)]
        zeros += any(c.h == 0 for c in classes)
        assert intersect(s, classes) == expanded_intersect(s, classes), (s, classes)
    assert zeros >= 100


def test_intersect_permutation_invariance():
    rng = random.Random(11)
    for _ in range(150):
        rank = rng.randint(2, 4)
        s = Scroll(tuple(rng.randint(-5, 8) for _ in range(rank)))
        classes = [C(rng.randint(-4, 5), rng.randint(-9, 9)) for _ in range(rank)]
        values = {intersect(s, list(p)) for p in permutations(classes)}
        assert len(values) == 1


def test_intersect_multilinearity():
    rng = random.Random(13)
    for _ in range(120):
        s = Scroll(rng.randint(-5, 8), rng.randint(-5, 8), rng.randint(-5, 8))
        a, b, c2, c3 = (C(rng.randint(-4, 5), rng.randint(-9, 9)) for _ in range(4))
        assert intersect(s, [a + b, c2, c3]) == intersect(s, [a, c2, c3]) + intersect(
            s, [b, c2, c3]
        )


def test_intersect_of_taut_powers_is_degree():
    for twists in [(5, 1, 0), (4, 0), (1, 1), (3, 0, -1), (7, 2, 2, 1)]:
        s = Scroll(twists)
        assert intersect(s, [C(1, 0)] * s.rank) == s.delta()


# -------------------------------------------------------- canonical class


def test_canonical_class_values():
    # on F(4,0) the basis change must give the usual -2 xi - 6 f
    assert canonical_class(Scroll(4, 0)) == C(-2, 2)
    assert canonical_class(Scroll(1, 1)) == C(-2, 0)
    assert canonical_class(Scroll(5, 1, 0)) == C(-3, 4)
    # second route, adjunction: the sub-scroll F(d1, ..., d_{n-1}) lies in |O(1) - d_n F|,
    # and K_F + (1, -d_n) restricts to its canonical class
    for d in product(range(-3, 6), repeat=3):
        s = Scroll(d)
        *rest, dn = s.twists
        assert canonical_class(s) + C(1, -dn) == canonical_class(Scroll(rest)), d


def test_canonical_class_pins_half_branch():
    # -K - O(1) is half the branch class of the anticanonical double cover
    for m in range(3, 15):
        s = Scroll(m, m - 4, 0)
        half = -canonical_class(s) - C(1, 0)
        assert half == C(2, 2 - s.delta())
        assert 2 * half == C(4, 12 - 4 * m)


# ---------------------------------------------------------- fixed component


def test_fixed_component_examples():
    assert fixed_component_multiplicity(Scroll(5, 1, 0), C(1, -5), C(4, -8)) == 1
    assert fixed_component_multiplicity(Scroll(13, 9, 0), C(1, -13), C(4, -40)) == 1
    assert fixed_component_multiplicity(Scroll(4, 0), C(1, -4), C(4, -4)) == 1
    with pytest.raises(NotRigid):
        fixed_component_multiplicity(Scroll(4, 0), C(1, 0), C(4, -4))
    with pytest.raises(EmptySystem):
        fixed_component_multiplicity(Scroll(4, 0), C(1, -4), C(1, -9))


def test_fixed_component_chain_property():
    cases = []
    for e in range(1, 7):
        for k in range(0, 5):
            for f in range(-6, 7):
                s = Scroll(e, 0)
                comp, sys = C(1, -e), C(k, f)
                if h0(s, sys) > 0:
                    cases.append((s, comp, sys))
    assert len(cases) >= 100
    for s, comp, sys in cases:
        mu = fixed_component_multiplicity(s, comp, sys)
        assert h0(s, sys - mu * comp) == h0(s, sys)
        assert h0(s, sys - (mu + 1) * comp) < h0(s, sys)


def test_fixed_component_matches_h0_walk():
    # second route: the h0-chain walk, for B = (k, -k*d1) with k up to 3
    rng = random.Random(20261018)
    nonzero = 0
    for _ in range(300):
        s = Scroll(tuple(rng.randint(-3, 7) for _ in range(rng.randint(3, 4))))
        if s.twists[0] == s.twists[1]:
            continue
        k = rng.randint(1, 3)
        comp = C(k, -k * s.twists[0])
        sys = C(rng.randint(0, 6), rng.randint(-30, 10))
        if h0(s, sys) == 0:
            with pytest.raises(EmptySystem):
                fixed_component_multiplicity(s, comp, sys)
            continue
        mu = fixed_component_multiplicity(s, comp, sys)
        assert mu == walk_fixed_component(s, comp, sys), (s, comp, sys)
        nonzero += mu > 0
    assert nonzero >= 10


def test_fixed_component_rejects_trivial_component():
    # (0, 0) has h0 = 1 but subtracting it never drops h0: no finite answer
    with pytest.raises(NotRigid):
        fixed_component_multiplicity(Scroll(4, 0), C(0, 0), C(1, 0))


def test_non_rigid_component_with_a_refused_count():
    # the closed form finds (10^5, -4*10^5) non-rigid (f > -k*d1); its h0 count is a
    # walk over the budget, so the message bounds h0 instead, with no chained error
    s, comp = Scroll(5, 3, 1, 0, -2), C(10**5, -4 * 10**5)
    with pytest.raises(BandTooWide):
        h0(s, comp)
    with pytest.raises(NotRigid) as info:
        fixed_component_multiplicity(s, comp, C(1, 0))
    assert "has h0 >= 2, need 1" in str(info.value)
    assert info.value.__cause__ is None and info.value.__context__ is None


def test_rigidity_closed_form_matches_h0():
    # second route for the closed-form rigidity test: NotRigid exactly when
    # h0(comp) != 1 or comp = (0, 0), and the message still reports h0
    kinds = Counter()
    for n in (2, 3, 4):
        for twists in combinations_with_replacement(range(4, -3, -1), n):
            s = Scroll(twists)
            d1, d2 = twists[:2]
            for h in range(-1, 5):
                for f in range(-h * d1 - 3, -h * d1 + 4):
                    comp = C(h, f)
                    count = h0(s, comp)
                    if count == 1 and (h, f) != (0, 0):
                        # comp is its own system, fixed exactly once
                        assert fixed_component_multiplicity(s, comp, comp) == 1, (s, comp)
                        kinds["rigid"] += 1
                        continue
                    with pytest.raises(NotRigid) as info:
                        fixed_component_multiplicity(s, comp, comp)
                    if (h, f) != (0, 0):
                        assert f"has h0 = {count}, need 1" in str(info.value), (s, comp)
                    kinds["tie" if h >= 1 and f == -h * d1 and d1 == d2 else "not rigid"] += 1
    assert kinds["rigid"] >= 100 and kinds["tie"] >= 100 and kinds["not rigid"] >= 1000, kinds


# ------------------------------------------------------- fiber multiplicity


def test_fiber_multiplicity_examples():
    assert fiber_multiplicity_at(Scroll(13, 9, 0), C(4, -40), 3) == 4
    assert fiber_multiplicity_at(Scroll(12, 8, 0), C(4, -36), 3) == 3
    assert fiber_multiplicity_at(Scroll(5, 1, 0), C(0, 0), 3) == 0
    # d_2 = d_1 - 1 with 0 <= h*d_1 + f < h: the support is {x_1^2, x_1*x_2}
    assert fiber_multiplicity_at(Scroll(2, 1), C(2, -3), 2) == 1
    with pytest.raises(IndexOutOfRange):
        fiber_multiplicity_at(Scroll(5, 1, 0), C(0, 0), 4)
    with pytest.raises(NegativeDegree):
        fiber_multiplicity_at(Scroll(5, 1, 0), C(-1, 3), 3)


def test_fiber_multiplicity_matches_oracle_support():
    # second route: min(h - e_i) over the itertools.product support
    rng = random.Random(20261019)
    empty = 0
    for _ in range(250):
        s = Scroll(tuple(rng.randint(-4, 9) for _ in range(rng.randint(2, 4))))
        h, f = rng.randint(0, 5), rng.randint(-30, 15)
        i = rng.randint(1, s.rank)
        support = oracle_support(s.twists, h, f)
        expected = min((h - e[i - 1] for e in support), default=INFINITE)
        assert fiber_multiplicity_at(s, C(h, f), i) == expected, (s, h, f, i)
        empty += not support
    assert empty >= 10


def test_fiber_multiplicity_empty_support_is_infinite():
    value = fiber_multiplicity_at(Scroll(4, 0), C(1, -5), 1)
    assert value == INFINITE
    assert value > 3
    assert not value <= 3


def test_infinite_orders_above_every_integer():
    # analyze_cover compares a multiplicity that may be INFINITE with 3 directly
    assert 3 < INFINITE
    assert not INFINITE <= 3
    assert max(5, INFINITE) is INFINITE
    # one value: equal, equal hashes, and the repr names it
    assert type(INFINITE)() == INFINITE and hash(type(INFINITE)()) == hash(INFINITE)
    assert repr(INFINITE) == "INFINITE"


def test_branch_multiplicity_bound_reproduces_twelve():
    for m in range(3, 31):
        s = Scroll(m, m - 4, 0)
        zero_index = s.twists.index(0) + 1
        mult = fiber_multiplicity_at(s, C(4, -(4 * m - 12)), zero_index)
        assert (mult <= 3) == (m <= 12), m


# ------------------------------------------------------- twist shift


def shifted(s, t):
    return Scroll(tuple(d + t for d in s.twists))


def shift_class(c, t):
    """F(d) and F(d + t) are one variety; O(1) moves to O(1) - t*F."""
    return C(c.h, c.f - c.h * t)


def test_twist_shift_isomorphism():
    rng = random.Random(20261020)
    for _ in range(120):
        s = Scroll(tuple(rng.randint(-4, 8) for _ in range(rng.randint(2, 4))))
        t = rng.randint(-5, 5)
        u = shifted(s, t)
        c = C(rng.randint(0, 5), rng.randint(-25, 15))
        assert h0(s, c) == h0(u, shift_class(c, t))
        classes = [C(rng.randint(-3, 4), rng.randint(-8, 8)) for _ in range(s.rank)]
        assert intersect(s, classes) == intersect(u, [shift_class(a, t) for a in classes])
        i = rng.randint(1, s.rank)
        assert fiber_multiplicity_at(s, c, i) == fiber_multiplicity_at(u, shift_class(c, t), i)
        if s.twists[0] > s.twists[1] and h0(s, c) > 0:
            k = rng.randint(1, 3)
            comp = C(k, -k * s.twists[0])
            assert shift_class(comp, t) == C(k, -k * u.twists[0])
            assert fixed_component_multiplicity(s, comp, c) == fixed_component_multiplicity(
                u, shift_class(comp, t), shift_class(c, t)
            )


def test_twist_shift_m3_model():
    # the m = 3 cover base F(3,0,-1) is F(4,1,0); B avoids the generic branch member on both
    models = [(Scroll(3, 0, -1), C(4, 0), C(1, -3)), (Scroll(4, 1, 0), C(4, -4), C(1, -4))]
    for s, branch, b in models:
        assert (h0(s, branch), h0(s, branch - b)) == (61, 60)
        assert fixed_component_multiplicity(s, b, branch) == 0
        assert fiber_multiplicity_at(s, branch, 3) == 1
    assert shifted(Scroll(3, 0, -1), 1) == Scroll(4, 1, 0)
    assert shift_class(C(4, 0), 1) == C(4, -4) and shift_class(C(1, -3), 1) == C(1, -4)


# ---------------------------------------------------------------- sub-scrolls


def test_restrict_examples():
    sub, cls = restrict_to_subscroll(Scroll(5, 1, 0), (1, 2), C(4, -8))
    assert sub == Scroll(5, 1) and cls == C(4, -8)
    sub, cls = restrict_to_subscroll(Scroll(3, 0, -1), (1, 2), C(1, -3))
    assert sub == Scroll(3, 0) and cls == C(1, -3)
    s = Scroll(7, 2, 1)
    assert restrict_to_subscroll(s, (1, 2, 3), C(2, 2)) == (s, C(2, 2))
    with pytest.raises(TooFewSummands):
        restrict_to_subscroll(s, (2,), C(0, 0))
    with pytest.raises(IndexOutOfRange):
        restrict_to_subscroll(s, (1, 5), C(0, 0))
    # keep must be a list or a tuple of indices; a set was once read in its iteration order
    for keep in (5, None, {1, 2}):
        with pytest.raises(FanobaseError):
            restrict_to_subscroll(Scroll(5, 1, 0), keep, C(2, 0))


def test_restrict_is_additive():
    s = Scroll(6, 2, 0)
    a, b = C(2, -5), C(1, 3)
    _, ra = restrict_to_subscroll(s, (1, 3), a)
    _, rb = restrict_to_subscroll(s, (1, 3), b)
    _, rab = restrict_to_subscroll(s, (1, 3), a + b)
    assert rab == ra + rb


# ----------------------------------------------------------- minimal degree


def test_minimal_degree_examples():
    assert minimal_degree_data(Scroll(5, 1, 0)) == (6, 8)
    assert minimal_degree_data(Scroll(1, 1)) == (2, 3)
    assert minimal_degree_data(Scroll(4, 0)) == (4, 5)
    # second route through the sections: with every twist >= 0 the image spans
    # P^(g - 1), g = h0(O(1)), and its degree is the codimension g - 1 - (rank - 1) plus 1
    for d in product(range(7), repeat=3):
        s = Scroll(d)
        g = h0(s, C(1, 0))
        assert minimal_degree_data(s) == (g - s.rank, g - 1), d
    with pytest.raises(NegativeTwist):
        minimal_degree_data(Scroll(3, 0, -1))
