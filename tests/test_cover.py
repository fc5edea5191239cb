"""Double-cover branch pipeline: canonical bookkeeping and the m <= 12 bound."""

import pytest

from fanobase import (
    INFINITE,
    BranchReport,
    DivisorClass,
    DoubleCoverSpec,
    FanobaseError,
    InvalidM,
    Scroll,
    Verdict,
    WrongRank,
    analyze_cover,
    branch_for_taut_anticanonical,
    canonical_class,
    cover_degree,
    forced_minimal_decomposition,
    from_scroll,
    h0,
    intersect,
    restrict_to_subscroll,
)
from fanobase import scroll as scroll_module
from tracer import package_modules  # bench/tracer.py, on the path through conftest.py

C = DivisorClass


def test_branch_examples():
    assert branch_for_taut_anticanonical(Scroll(5, 1, 0)).branch == C(4, -8)
    assert branch_for_taut_anticanonical(Scroll(3, 0, -1)).branch == C(4, 0)
    assert branch_for_taut_anticanonical(Scroll(1, 1, 0)).branch == C(4, 0)
    with pytest.raises(WrongRank):
        branch_for_taut_anticanonical(Scroll(4, 0))


def test_branch_is_twice_half():
    for twists in [(5, 1, 0), (3, 0, -1), (9, 9, 9), (2, 1, 0)]:
        spec = branch_for_taut_anticanonical(Scroll(twists))
        assert spec.branch == 2 * spec.half


def test_adjunction_closure():
    # K + L + O(1) = 0 is the defining equation of the branch data
    for d1 in range(-3, 7):
        for d2 in range(-3, d1 + 1):
            for d3 in range(-3, d2 + 1):
                s = Scroll(d1, d2, d3)
                spec = branch_for_taut_anticanonical(s)
                assert canonical_class(s) + spec.half + C(1, 0) == C(0, 0)


def test_spec_stores_the_branch_and_reads_its_half():
    # D = 2L is stored once: L is read from D, and a D that is not twice a class is refused
    assert DoubleCoverSpec.__slots__ == ("base", "branch")
    for d1 in range(-3, 7):
        for d2 in range(-3, d1 + 1):
            for d3 in range(-3, d2 + 1):
                s = Scroll(d1, d2, d3)
                assert branch_for_taut_anticanonical(s).half == C(2, 2 - s.delta())
    base = Scroll(5, 1, 0)
    for odd in (C(3, 0), C(4, -7)):
        with pytest.raises(FanobaseError):
            DoubleCoverSpec(base, odd)


def test_cover_degree_examples():
    assert cover_degree(branch_for_taut_anticanonical(Scroll(5, 1, 0))) == 12
    assert cover_degree(branch_for_taut_anticanonical(Scroll(12, 8, 0))) == 40
    assert cover_degree(branch_for_taut_anticanonical(Scroll(1, 1, 0))) == 4


def test_cover_degree_is_twice_delta():
    for d1 in range(0, 8):
        for d2 in range(0, d1 + 1):
            for d3 in range(0, d2 + 1):
                s = Scroll(d1, d2, d3)
                if s.delta() >= 1:
                    assert cover_degree(branch_for_taut_anticanonical(s)) == 2 * s.delta()


def test_cover_degree_by_riemann_roch_on_the_cover():
    # second route: pi_*O_U = O + O(-L) gives h0(U, -K_U) = h0(O(1)) + h0(O(1) - L),
    # and (-K_U)^3 = 2(h0 - 3) on the cover
    for m in range(3, 31):
        spec = branch_for_taut_anticanonical(Scroll(m, m - 4, 0))
        sections = h0(spec.base, C(1, 0)) + h0(spec.base, C(1, 0) - spec.half)
        assert 2 * (sections - 3) == cover_degree(spec), m


def test_analyze_rejects_small_m():
    with pytest.raises(InvalidM):
        analyze_cover(2)


def test_analyze_boundary_cases():
    smooth = analyze_cover(3)
    assert smooth.base == Scroll(3, 0, -1)
    assert smooth.fiber_mult <= 1
    assert smooth.verdict is Verdict.PASSES_DU_VAL_NECESSARY

    top = analyze_cover(12)
    assert top.fiber_mult == 3
    assert top.verdict is Verdict.PASSES_DU_VAL_NECESSARY

    beyond = analyze_cover(13)
    assert beyond.fiber_mult == 4
    assert beyond.verdict is Verdict.FAILS_DU_VAL_NECESSARY


def test_fixed_component_forced_exactly_from_four():
    # the unique member of |O(1) - mF| is rigid for every m, but it is
    # forced into the generic branch member only from m = 4 on: at m = 3
    # the branch system is |O(4)| and its generic member avoids B
    for m in range(3, 31):
        report = analyze_cover(m)
        assert h0(report.base, report.b_class) == 1
        assert report.b_mult == (1 if m >= 4 else 0), m


def test_residual_class_and_triple_product():
    for m in range(3, 31):
        report = analyze_cover(m)
        assert report.residual_class == C(3, -(3 * m - 12))
        triple = intersect(
            report.base, [report.residual_class, report.b_class, C(1, 0)]
        )
        assert triple == 0


def test_branch_restricts_to_sigma4_quartic():
    # sub-scroll on the two largest twists for m >= 4
    for m in range(4, 21):
        base = Scroll(m, m - 4, 0)
        spec = branch_for_taut_anticanonical(base)
        sub, cls = restrict_to_subscroll(base, (1, 2), spec.branch)
        surface_class = from_scroll(sub, cls)
        assert (surface_class.e, surface_class.xi, surface_class.fib) == (4, 4, 12)
        assert forced_minimal_decomposition(surface_class)[0] == 1
    # at m = 3 the second summand sorts below the zero twist, so the
    # hyperplane Sigma_4 sits on summands one and three
    base = Scroll(3, 0, -1)
    spec = branch_for_taut_anticanonical(base)
    sub, cls = restrict_to_subscroll(base, (1, 3), spec.branch)
    surface_class = from_scroll(sub, cls)
    assert (surface_class.e, surface_class.xi, surface_class.fib) == (4, 4, 12)


def test_residual_and_verdict_are_derived_from_the_stored_fields():
    # the report stores what the analysis computes; R = D - B and the
    # Du Val rule fiber_mult <= 3 are read from those fields
    spec = branch_for_taut_anticanonical(Scroll(5, 1, 0))
    b = C(1, -5)
    failing = BranchReport(5, spec, b, 1, 4)
    assert failing.verdict is Verdict.FAILS_DU_VAL_NECESSARY
    assert failing.residual_class == spec.branch - b == C(3, -3)
    assert BranchReport(5, spec, b, 1, 3).verdict is Verdict.PASSES_DU_VAL_NECESSARY
    assert BranchReport(5, spec, b, 1, INFINITE).verdict is Verdict.FAILS_DU_VAL_NECESSARY
    assert BranchReport.__slots__ == ("m", "spec", "b_class", "b_mult", "fiber_mult")
    assert analyze_cover(5) == BranchReport(5, spec, b, 1, 2)


def test_report_dict_round_trips_branch():
    report = analyze_cover(7)
    data = report.to_dict()
    assert data["branch"] == [4, -16]
    assert data["b_mult"] == 1
    assert data["verdict"] == "passes-du-val-necessary"
    # supported monomial (3,0,1) realizes the minimum 4 - 1
    assert data["fiber_mult"] == 3


def test_verdict_matches_the_closed_form_bound():
    # A second route to the verdict.  For m >= 4 the base F(m, m-4, 0) keeps
    # its order, so x_1, x_2, x_3 carry the twists m, m - 4, 0, and the branch
    # is D = (4, 12 - 4m).  A monomial x_1^a x_2^b x_3^k of D (a + b + k = 4)
    # has fiber degree a*m + b*(m - 4) + 12 - 4m, at most g(k) = 12 - k*m,
    # which x_1^(4-k) x_3^k attains.  So the x_3-exponents of the sections
    # run over 0 <= k <= min(4, 12 // m).  The multiplicity at the
    # distinguished point (x_1 = x_2 = 0) is the least a + b = 4 - k, that is
    # 4 - min(4, 12 // m), which is at most 3 exactly when m <= 12.
    for m in [*range(4, 200), 400, 10**6, 10**12]:
        report = analyze_cover(m)
        assert report.fiber_mult == 4 - min(4, 12 // m), m
        assert report.verdict.passed == (m <= 12), m
    # at m = 3 the base is F(3, 0, -1), whose twists sort differently
    assert analyze_cover(3).fiber_mult == 1


@pytest.fixture
def bindings_kept():
    """At teardown, after ``probe``'s, every package module and ``BranchReport`` holds the
    attributes it held before ``probe`` was set up: none rebound, none left behind."""
    owners = [*package_modules(), BranchReport]
    before = [dict(vars(owner)) for owner in owners]
    yield
    assert [dict(vars(owner)) for owner in owners] == before


def test_probe_sees_the_multiplicities_cover_calls(bindings_kept, probe):
    # analyze_cover calls both multiplicities through cover's own bindings of the
    # scroll kernels, so a probe of scroll's functions must rebind those too
    log = probe(scroll_module, "fiber_multiplicity_at", "fixed_component_multiplicity")
    probe(BranchReport, "__init__")
    probe(scroll_module, "divmod")  # a builtin: patched in scroll alone, and deleted there again
    probe(scroll_module, "_exponent_range")
    for m in (3, 5, 12, 13, 400, 10**12):
        log.clear()
        report = analyze_cover(m)
        assert [(name, result) for name, _, result in log if name not in {"divmod", "_exponent_range"}] == [
            ("fixed_component_multiplicity", report.b_mult), ("fiber_multiplicity_at", report.fiber_mult),
            ("BranchReport.__init__", None)], m
        # one exponent range per multiplicity: the cost does not grow with m
        assert [name for name, _, _ in log].count("_exponent_range") == 2, m
