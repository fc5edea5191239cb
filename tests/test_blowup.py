"""Blowup degree chains and normal-bundle bookkeeping."""

import pytest

from fanobase import (
    BlowupStep,
    FanobaseError,
    InvalidDegree,
    InvalidM,
    NormalBundle,
    blowup_degree,
    cone_case_normal_bundle,
    decomposition_fiber_coeff,
    exceptional_surface_index,
    product_degree,
    rr_chi,
)


def test_blowup_degree_examples():
    assert blowup_degree(BlowupStep(12, 1, 0)) == 8
    assert blowup_degree(BlowupStep(8, 2, 1)) == 4
    for m in range(3, 13):
        assert blowup_degree(BlowupStep(2 * m - 2, m - 2, 0)) == 0


def test_blowup_degree_by_riemann_roch():
    # second route: the blowup loses the sections through C, chi(O_C(-K)) = -K.C + 1 - g of them
    for old in range(0, 40, 2):
        for curve in range(20):
            for genus in range(8):
                new = blowup_degree(BlowupStep(old, curve, genus))
                assert rr_chi(new, 1) == rr_chi(old, 1) - (curve + 1 - genus), (old, curve, genus)


def test_blowup_degree_monotonicity():
    for curve in range(0, 10):
        assert blowup_degree(BlowupStep(20, curve + 1, 2)) < blowup_degree(
            BlowupStep(20, curve, 2)
        )
    for g in range(0, 10):
        assert blowup_degree(BlowupStep(20, 3, g + 1)) > blowup_degree(BlowupStep(20, 3, g))


def test_blowup_step_rejects_negative_genus():
    assert blowup_degree(BlowupStep(1, 0, 0)) == -1
    for g in (-1, -5):
        with pytest.raises(FanobaseError):
            BlowupStep(1, 0, g)


def test_normal_bundle():
    nb = NormalBundle(3, -2)
    assert nb.m == 5
    with pytest.raises(FanobaseError):
        NormalBundle(-2, 3)


def test_exceptional_surface_index():
    for m in range(3, 13):
        assert exceptional_surface_index(NormalBundle(m - 2, -2)) == m
    assert exceptional_surface_index(NormalBundle(0, 0)) == 0
    assert exceptional_surface_index(NormalBundle(0, -1)) == 1


def test_cone_case_normal_bundle():
    assert cone_case_normal_bundle(3) == NormalBundle(1, -2)
    assert cone_case_normal_bundle(5) == NormalBundle(3, -2)
    assert cone_case_normal_bundle(12) == NormalBundle(10, -2)
    for m in range(3, 31):
        nb = cone_case_normal_bundle(m)
        assert nb.m == m
        assert exceptional_surface_index(nb) == m
    with pytest.raises(InvalidM):
        cone_case_normal_bundle(2)


def test_decomposition_fiber_coeff():
    for m in range(3, 13):
        assert decomposition_fiber_coeff(m - 2) == m
    assert decomposition_fiber_coeff(0) == 2
    assert decomposition_fiber_coeff(-2) == 0


def test_product_degree():
    assert product_degree(1) == 6
    assert product_degree(9) == 54
    assert product_degree(2) == 12
    with pytest.raises(InvalidDegree):
        product_degree(0)
