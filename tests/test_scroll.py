"""Scroll linear systems, intersection numbers and support combinatorics.

The reference oracle for section counts enumerates every exponent tuple
with itertools.product and applies the degree count of line bundles on
the line directly; the library walks compositions instead, so the two
routes share no code.
"""

import random
from itertools import permutations, product

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
    canonical_class,
    fiber_multiplicity_at,
    fixed_component_multiplicity,
    h0,
    intersect,
    minimal_degree_data,
    monomial_support,
    restrict_to_subscroll,
)

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
    return {
        e
        for e in product(range(h + 1), repeat=len(twists))
        if sum(e) == h and sum(ei * di for ei, di in zip(e, twists)) + f >= 0
    }


def sigma_basis_h0(d1, d2, h, f):
    """Second route on surfaces: count in the (minimal section, fiber) basis."""
    if h < 0:
        return 0
    e = d1 - d2
    b = h * d1 + f
    return sum(max(0, b - i * e + 1) for i in range(h + 1))


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


def test_h0_two_routes_on_surfaces():
    # full grid: |d_i| <= 10 with d1 >= d2, 0 <= h <= 6, |f| <= 40
    checked = 0
    for d1 in range(-10, 11):
        for d2 in range(-10, d1 + 1):
            for h in range(7):
                for f in range(-40, 41):
                    assert h0(Scroll(d1, d2), C(h, f)) == sigma_basis_h0(d1, d2, h, f)
                    checked += 1
    assert checked >= 100


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


def test_fixed_component_rejects_trivial_component():
    # (0, 0) has h0 = 1 but subtracting it never drops h0: no finite answer
    with pytest.raises(NotRigid):
        fixed_component_multiplicity(Scroll(4, 0), C(0, 0), C(1, 0))


# ------------------------------------------------------- fiber multiplicity


def test_fiber_multiplicity_examples():
    assert fiber_multiplicity_at(Scroll(13, 9, 0), C(4, -40), 3) == 4
    assert fiber_multiplicity_at(Scroll(12, 8, 0), C(4, -36), 3) == 3
    assert fiber_multiplicity_at(Scroll(5, 1, 0), C(0, 0), 3) == 0
    with pytest.raises(IndexOutOfRange):
        fiber_multiplicity_at(Scroll(5, 1, 0), C(0, 0), 4)


def test_fiber_multiplicity_empty_support_is_infinite():
    value = fiber_multiplicity_at(Scroll(4, 0), C(1, -5), 1)
    assert value == INFINITE
    assert value > 3
    assert not value <= 3


def test_branch_multiplicity_bound_reproduces_twelve():
    for m in range(3, 31):
        s = Scroll(m, m - 4, 0)
        zero_index = s.twists.index(0) + 1
        mult = fiber_multiplicity_at(s, C(4, -(4 * m - 12)), zero_index)
        assert (mult <= 3) == (m <= 12), m


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
    with pytest.raises(NegativeTwist):
        minimal_degree_data(Scroll(3, 0, -1))
