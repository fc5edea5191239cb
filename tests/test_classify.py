"""The thirteen-case table, the (a, b) pruning, and the cross-module checks."""

import time
from collections import Counter

import pytest

from fanobase import (
    CheckFailure,
    ClassificationCase,
    DivisorClass,
    NormalBundle,
    NotRigid,
    OutOfRange,
    PruneKind,
    Scroll,
    analyze_cover,
    case_checks,
    cone_case,
    enumerate_cases,
    fano_degree,
    prune,
    verify_case,
)
from fanobase import cover, scroll
from fanobase.classify import product_case
from fanobase.errors import Value


def test_thirteen_cases_with_expected_degrees():
    cases = enumerate_cases()
    assert len(cases) == 13  # their degrees are acceptance criterion 11's
    assert [c.label for c in cases] == ["i", "ii-a", "ii-b"] + [
        f"ii-c({m})" for m in range(3, 13)
    ]


def test_case_invariants():
    cases = enumerate_cases()
    assert sum(1 for c in cases if c.bs_dim == 0) == 1
    for c in cases:
        assert c.degree == 2 * c.m - 2 == fano_degree(c.m)
        assert c.degree % 2 == 0 and c.degree <= 22
        if c.nb is not None:
            assert c.m == c.nb.a + c.nb.b + 4
    # ii-a and ii-c(3) are distinct degree-4 cases
    degree_four = [c for c in cases if c.degree == 4]
    assert {c.label for c in degree_four} == {"ii-a", "ii-c(3)"}
    assert {c.w for c in degree_four} == {"Sigma(1)", "Cone(3)"}


def test_prune_examples():
    assert prune(1, -1).kind is PruneKind.EXCLUDED
    assert prune(0, -2).kind is PruneKind.EXCLUDED
    assert prune(1, 1).kind is PruneKind.EXCLUDED
    assert prune(5, -2).kind is PruneKind.CONE
    assert prune(0, -1).kind is PruneKind.RULED_SEXTIC
    assert prune(0, 0).kind is PruneKind.PRODUCT
    assert prune(1, -1).reason
    with pytest.raises(OutOfRange):
        prune(0, -3)
    with pytest.raises(OutOfRange):
        prune(-1, 0)


def test_prune_grid_reproduces_enumeration():
    survivors = []
    for b in range(-2, 13):
        for a in range(b, 13):
            verdict = prune(a, b)
            if verdict.kind is not PruneKind.EXCLUDED:
                survivors.append((a, b, verdict.kind))
    cone = [(a, b) for a, b, kind in survivors if kind is PruneKind.CONE]
    other = [(a, b) for a, b, kind in survivors if kind is not PruneKind.CONE]
    assert cone == [(a, -2) for a in range(1, 13)]
    assert sorted(other) == [(0, -1), (0, 0)]
    # the branch analysis truncates the cone family at m = a + 2 <= 12
    admitted = [a for a, _ in cone if analyze_cover(a + 2).verdict.passed]
    assert [a + 2 for a in admitted] == list(range(3, 13))
    labels = (
        ["i", "ii-a", "ii-b"] + [f"ii-c({a + 2})" for a in admitted]
    )
    assert labels == [c.label for c in enumerate_cases()]


def test_all_cases_verify():
    start = time.monotonic()
    for case in enumerate_cases():
        checks = verify_case(case)
        assert checks and all(c.passed for c in checks)
    assert time.monotonic() - start < 1.0


def test_out_of_family_cone_case_fails_at_branch_analysis():
    thirteenth = cone_case(13)
    with pytest.raises(CheckFailure) as info:
        verify_case(thirteenth)
    assert info.value.check.name == "branch analysis verdict"
    # the checks are still individually computable
    results = case_checks(thirteenth)
    assert any(not c.passed for c in results)


@pytest.mark.parametrize("m", [*range(3, 15), 20, 60, 400, 10**6])
def test_cone_suite_builds_the_cover_once_and_counts_no_sections(probe, m):
    # the suite reads the spec off the branch report, and rigidity of B and
    # of the minimal section is decided in closed form, not by h0
    probe(cover, "branch_for_taut_anticanonical")
    log = probe(scroll, "h0")
    checks = case_checks(cone_case(m))
    assert [name for name, _, _ in log] == ["branch_for_taut_anticanonical"]
    # past m = 12 only the verdict fails: the branch gets a fourfold point
    assert [c.name for c in checks if not c.passed] == ([] if m <= 12 else ["branch analysis verdict"])
    # the counters see the calls they guard: a non-rigid component reports its h0
    with pytest.raises(NotRigid):
        scroll.fixed_component_multiplicity(Scroll(4, 0), DivisorClass(1, 0), DivisorClass(4, -4))
    assert [name for name, _, _ in log[1:]] == ["h0"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# values one cone_case(m), its case_checks and one analyze_cover(m) build, whatever m, but for
# the check records: O(1), the Sigma_4 section, the prune verdict and the passing records of
# the nine m-independent checks are built once at import
CONE_PATH_VALUES = {
    "NormalBundle": 1, "ClassificationCase": 1, "CaseVerdict": 0, "Scroll": 3, "DoubleCoverSpec": 2,
    "DivisorClass": 7, "BranchReport": 2, "SurfaceClass": 3, "PencilClass": 3, "BlowupStep": 2,
}
SHARED_CHECKS = {
    "branch analysis verdict", "fixed component multiplicity", "elliptic stage degree",
    "branch restricts to the standard quartic class", "forced splitting on Sigma_4",
    "residual misses the minimal section", "residual genus", "residual meets fixed part trivially",
    "curve base locus",
}


# of the 19 checks, those whose shared record holds at m are not built: all nine at m = 12;
# at m = 3 the branch can avoid B (expected 0), and past m = 12 the verdict fails
@pytest.mark.parametrize("m, check_results, fresh", [
    (3, 11, {"fixed component multiplicity"}),
    (12, 10, set()),
    (400, 11, {"branch analysis verdict"}),
], ids=["3", "12", "400"])
def test_cone_path_builds_each_fixed_value_once(probe, m, check_results, fresh):
    at_seven = {c.name: c for c in case_checks(cone_case(7))}
    for cls in _subclasses(Value):
        if "__init__" in vars(cls):
            log = probe(cls, "__init__")
    checks = case_checks(cone_case(m))
    analyze_cover(m)
    built = Counter(name.removesuffix(".__init__") for name, _, _ in log)
    assert built == Counter({**CONE_PATH_VALUES, "CheckResult": check_results})
    # each shared record is the one object that m = 7 also returns; every other record is new
    assert {c.name for c in checks if c is at_seven[c.name]} == SHARED_CHECKS - fresh
    assert len(checks) - check_results == len(SHARED_CHECKS - fresh)
    # prune hands out one shared verdict per outcome
    assert prune(m - 2, -2) is prune(m - 1, -2)


def test_suite_follows_case_kind_not_label():
    for case in enumerate_cases():
        renamed = ClassificationCase(
            "renamed", case.m, case.nb, case.w, case.degree, case.bs_dim,
            case.construction, case.assumes, case.notes,
        )
        assert [c.name for c in case_checks(renamed)] == [c.name for c in case_checks(case)]


def _row_with(case, **changes):
    fields = {name: getattr(case, name) for name in ClassificationCase.__slots__}
    return ClassificationCase(**{**fields, **changes})


def _failing(case):
    return [c.name for c in case_checks(case) if not c.passed]


def test_a_mistyped_column_fails_the_checks_that_state_it():
    # the suites read the row's own degree and base-locus dimension, so
    # a wrong entry in either column fails every check that states it
    sextic = enumerate_cases()[1]
    assert sextic.label == "ii-a"
    assert _failing(_row_with(sextic, bs_dim=0)) == ["curve base locus"]
    assert _failing(_row_with(sextic, degree=5)) == ["blowup degree", "degree from pencil form"]
    degree_checks = {
        "i": ["anticanonical degree", "degree from pencil form"],
        "ii-a": ["blowup degree", "degree from pencil form"],
        "ii-b": ["product degree", "degree from pencil form"],
    }
    for case in enumerate_cases():
        base_locus = "point base locus" if case.bs_dim == 0 else "curve base locus"
        assert _failing(_row_with(case, bs_dim=1 - case.bs_dim)) == [base_locus], case.label
        assert _failing(_row_with(case, degree=case.degree + 2)) == degree_checks.get(
            case.label, ["first blowup degree", "degree from pencil form"]), case.label


def test_excluded_splitting_type_has_no_suite():
    case = product_case()
    excluded = ClassificationCase(
        case.label, case.m, NormalBundle(1, 1), case.w, case.degree, case.bs_dim,
        case.construction, case.assumes, case.notes,
    )
    with pytest.raises(OutOfRange):
        case_checks(excluded)
