"""Elliptic-pencil lattice arithmetic and the double-cover chain."""

from itertools import product

import pytest

from fanobase import (
    InvalidM,
    NoSection,
    NotElephantShape,
    PencilClass,
    SurfaceClass,
    WrongSurface,
    base_locus_dimension,
    blowup_section_reduce,
    cover_pullback,
    dot,
    fano_degree,
    intersect2,
    saint_donat_form,
    square,
)


def test_dot_examples():
    assert dot(PencilClass(1, 2), PencilClass(1, 0)) == 0
    assert dot(PencilClass(0, 1), PencilClass(0, 1)) == 0
    assert dot(PencilClass(1, 5), PencilClass(1, 0)) == 3


def test_dot_identity_minus_k_dot_section():
    for m in range(2, 40):
        assert dot(PencilClass(1, m), PencilClass(1, 0)) == m - 2


def test_dot_is_the_pairing_on_sigma_2():
    # second route: the pencil Gram matrix [[-2, 1], [1, 0]] is the (section, fiber) form of Sigma_2
    for g1, l1, g2, l2 in product(range(-6, 7), repeat=4):
        assert dot(PencilClass(g1, l1), PencilClass(g2, l2)) == intersect2(
            SurfaceClass(2, g1, l1), SurfaceClass(2, g2, l2))


def test_sum_and_difference_are_componentwise():
    a, b = PencilClass(1, 5), PencilClass(2, -3)
    assert a + b == PencilClass(3, 2)
    assert a - b == PencilClass(-1, 8)
    assert (a - b) + b == a
    assert dot(a + b, a) == dot(a, a) + dot(b, a)


def test_lattice_is_even():
    for gamma in range(-6, 7):
        for ell in range(-6, 7):
            assert square(PencilClass(gamma, ell)) % 2 == 0


def test_saint_donat_form():
    assert saint_donat_form(PencilClass(1, 4)) == 4
    with pytest.raises(NotElephantShape):
        saint_donat_form(PencilClass(1, 1))
    with pytest.raises(NotElephantShape):
        saint_donat_form(PencilClass(2, 5))


def test_base_locus_dimension():
    assert base_locus_dimension(2) == 0
    assert base_locus_dimension(3) == 1
    assert base_locus_dimension(12) == 1
    with pytest.raises(InvalidM):
        base_locus_dimension(1)


def test_fano_degree():
    assert fano_degree(2) == 2
    assert fano_degree(4) == 6
    assert fano_degree(12) == 22
    with pytest.raises(InvalidM):
        fano_degree(1)
    for m in range(2, 101):
        assert fano_degree(m) == square(PencilClass(1, m))


def test_cover_pullback_examples():
    for m in range(2, 13):
        assert cover_pullback(SurfaceClass(4, 1, m)) == PencilClass(2, m)
    assert cover_pullback(SurfaceClass(4, 0, 1)) == PencilClass(0, 1)
    assert square(cover_pullback(SurfaceClass(4, 1, 5))) == 12
    with pytest.raises(WrongSurface):
        cover_pullback(SurfaceClass(3, 1, 5))


def test_blowup_section_reduce():
    assert blowup_section_reduce(PencilClass(2, 7)) == PencilClass(1, 7)
    assert blowup_section_reduce(PencilClass(1, 2)) == PencilClass(0, 2)
    assert square(blowup_section_reduce(PencilClass(1, 9))) == 0
    with pytest.raises(NoSection):
        blowup_section_reduce(PencilClass(0, 5))
