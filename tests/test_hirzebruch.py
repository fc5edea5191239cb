"""Hirzebruch-surface classes: pairing, adjunction genus, forced splitting."""

import pytest

from fanobase import (
    DivisorClass,
    EmptySystem,
    FanobaseError,
    NotEffectiveShape,
    RankMismatch,
    Scroll,
    SurfaceClass,
    SurfaceMismatch,
    canonical_surface_class,
    fixed_component_multiplicity,
    forced_minimal_decomposition,
    from_scroll,
    genus,
    h0,
    intersect,
    intersect2,
    minimal_section,
    to_scroll,
)


def test_intersect2_examples():
    assert intersect2(SurfaceClass(4, 3, 12), SurfaceClass(4, 1, 0)) == 0
    for e in range(8):
        assert intersect2(SurfaceClass(e, 1, 0), SurfaceClass(e, 1, 0)) == -e
    assert intersect2(SurfaceClass(3, 1, 3), SurfaceClass(3, 1, 0)) == 0
    with pytest.raises(SurfaceMismatch):
        intersect2(SurfaceClass(3, 1, 0), SurfaceClass(4, 1, 0))


def test_intersect2_is_symmetric_bilinear():
    a = SurfaceClass(4, 2, -3)
    b = SurfaceClass(4, -1, 5)
    c = SurfaceClass(4, 3, 1)
    assert intersect2(a, b) == intersect2(b, a)
    assert intersect2(a + b, c) == intersect2(a, c) + intersect2(b, c)


def test_genus_examples():
    assert genus(SurfaceClass(4, 3, 12)) == 10
    assert genus(SurfaceClass(6, 1, 0)) == 0
    assert genus(SurfaceClass(4, 1, 4)) == 0
    with pytest.raises(NotEffectiveShape):
        genus(SurfaceClass(4, -1, 3))


def test_genus_closed_form_matches_adjunction_with_k():
    # second route: build K and c + K and take the pairing with intersect2;
    # xi = 0 takes the fibers and their multiples, which have genus 1 - fib
    for e in range(8):
        for xi in range(9):
            for fib in range(-6, 31):
                c = SurfaceClass(e, xi, fib)
                assert genus(c) == 1 + intersect2(c, c + canonical_surface_class(e)) // 2, c
    assert genus(SurfaceClass(4, 0, 1)) == 0


def test_all_sections_are_rational():
    for e in range(7):
        for t in range(0, 12):
            assert genus(SurfaceClass(e, 1, t)) == 0


def test_forced_decomposition_examples():
    assert forced_minimal_decomposition(SurfaceClass(4, 4, 12)) == (1, SurfaceClass(4, 3, 12))
    for e in range(1, 6):
        assert forced_minimal_decomposition(SurfaceClass(e, 1, e)) == (0, SurfaceClass(e, 1, e))
    assert forced_minimal_decomposition(SurfaceClass(4, 2, 1)) == (2, SurfaceClass(4, 0, 1))
    with pytest.raises(EmptySystem):
        forced_minimal_decomposition(SurfaceClass(4, -1, 3))
    with pytest.raises(EmptySystem):
        forced_minimal_decomposition(SurfaceClass(4, 1, -1))


def test_forced_decomposition_residual_and_idempotence():
    for e in range(1, 6):
        for xi in range(5):
            for fib in range(0, 14):
                try:
                    mu, residual = forced_minimal_decomposition(SurfaceClass(e, xi, fib))
                except EmptySystem:
                    continue
                assert intersect2(residual, minimal_section(e)) >= 0
                again, residual2 = forced_minimal_decomposition(residual)
                assert again == 0 and residual2 == residual


def split_one_copy_at_a_time(c):
    """Second route: subtract the minimal section while the class meets it negatively."""
    xi = minimal_section(c.e)
    mu, residual = 0, c
    while intersect2(residual, xi) < 0:
        residual = residual - xi
        mu += 1
    return mu, residual


def test_forced_decomposition_matches_scroll_fixed_component():
    # mu, read off the x_1-exponent range, against the subtraction loop, the
    # independent route; for e >= 1 also against the scroll's fixed-component
    # count of the rigid class (1, -e), which reads the same range; emptiness
    # against h0 in the scroll basis
    nonzero = 0
    for e in range(8):
        for xi in range(-3, 8):
            for fib in range(-6, 30):
                c = SurfaceClass(e, xi, fib)
                surface, scroll_class = to_scroll(c)
                if xi < 0 or h0(surface, scroll_class) == 0:
                    with pytest.raises(EmptySystem):
                        forced_minimal_decomposition(c)
                    continue
                split = forced_minimal_decomposition(c)
                assert split == split_one_copy_at_a_time(c), c
                if e:
                    rigid = DivisorClass(1, -e)
                    assert split[0] == fixed_component_multiplicity(surface, rigid, scroll_class), c
                nonzero += split[0] > 0
    assert nonzero >= 100


def test_from_scroll_examples():
    assert from_scroll(Scroll(5, 1), DivisorClass(4, -8)) == SurfaceClass(4, 4, 12)
    assert from_scroll(Scroll(6, 0), DivisorClass(0, 1)) == SurfaceClass(6, 0, 1)
    assert from_scroll(Scroll(5, 1), DivisorClass(1, -5)) == SurfaceClass(4, 1, 0)
    with pytest.raises(RankMismatch):
        from_scroll(Scroll(5, 1, 0), DivisorClass(1, 0))


def test_from_scroll_is_additive_and_invertible():
    s = Scroll(7, 3)
    for h in range(-3, 4):
        for f in range(-9, 10):
            c = DivisorClass(h, f)
            surface_class = from_scroll(s, c)
            normal_form, back = to_scroll(surface_class)
            assert normal_form == Scroll(4, 0)
            assert from_scroll(normal_form, back) == surface_class
    a, b = DivisorClass(2, -5), DivisorClass(-1, 7)
    assert from_scroll(s, a + b) == from_scroll(s, a) + from_scroll(s, b)


def test_pairing_agrees_with_scroll_intersection():
    # xi1*fib2 + xi2*fib1 - e*xi1*xi2 equals the rank-2 form transported
    # through the basis change
    s = Scroll(6, 2)
    d1, d2 = s.twists
    for h1 in range(-2, 3):
        for f1 in range(-5, 6):
            for h2 in range(-2, 3):
                for f2 in range(-5, 6):
                    c1, c2 = DivisorClass(h1, f1), DivisorClass(h2, f2)
                    raw = (
                        s.delta() * h1 * h2 + h1 * f2 + h2 * f1
                    )  # expand (h1 H + f1 F)(h2 H + f2 F) on the surface
                    assert intersect2(from_scroll(s, c1), from_scroll(s, c2)) == raw
    # the other way: on each Sigma_e the pairing is the scroll intersection of the
    # normal forms on F(e, 0) that to_scroll gives
    for e in range(6):
        classes = [SurfaceClass(e, xi, fib) for xi in range(-3, 4) for fib in range(-6, 7)]
        normal = [to_scroll(c) for c in classes]
        assert {s for s, _ in normal} == {Scroll(e, 0)}
        for c1, (s, n1) in zip(classes, normal):
            for c2, (_, n2) in zip(classes, normal):
                assert intersect2(c1, c2) == intersect(s, [n1, n2]), (c1, c2)


def test_surface_class_needs_matching_index_for_sums():
    with pytest.raises(SurfaceMismatch):
        SurfaceClass(2, 1, 0) + SurfaceClass(3, 1, 0)
    with pytest.raises(SurfaceMismatch):
        SurfaceClass(2, 1, 0) - SurfaceClass(3, 1, 0)


def test_surface_index_is_non_negative():
    with pytest.raises(FanobaseError):
        SurfaceClass(-1, 0, 0)
