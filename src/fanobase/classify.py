"""The thirteen-case classification of Gorenstein Fano threefolds with base points.

A canonical Gorenstein Fano threefold whose anticanonical system has a
non-empty base locus maps to a surface of minimal degree W.  The cases
are pinned down by the splitting type O(a) + O(b) of the normal bundle
of the base curve (a >= b >= -2):

* the image is a cone exactly when b = -2 and a >= 1, giving the
  double-cover family with m = a + 2 and degree 2m - 2, which the
  branch analysis truncates at m <= 12;
* a ruled image Sigma_(a-b) with a > b forces (a, b) = (0, -1) (the
  blowup of a sextic hypersurface in P(1,1,1,2,3), degree 4);
* a = b forces a = b = 0 for a Fano total space (the product of a
  degree-1 del Pezzo surface with the line, degree 6);
* the remaining case has a point as base locus, m = 2, the degree-2
  complete intersection in P(1,1,1,1,2,3).

:func:`enumerate_cases` lists the cases, :func:`prune` encodes the
(a, b) trichotomy, and :func:`verify_case` replays every numerical
claim of a case through the calculus modules.
"""

from enum import Enum

from . import blowup, cover, hirzebruch, k3pencil, wps
from .blowup import BlowupStep, NormalBundle
from .errors import CheckFailure, FanobaseError, OutOfRange, Value, require_integers
from .hirzebruch import from_scroll, minimal_section
from .k3pencil import PencilClass
from .scroll import Scroll, intersect
from .wps import WeightedCI


class PruneKind(Enum):
    CONE = "cone"
    RULED_SEXTIC = "ruled-sextic"
    PRODUCT = "product"
    EXCLUDED = "excluded"


class CaseVerdict(Value):
    """Outcome of pruning one splitting type (a, b)."""

    __slots__ = {"kind": PruneKind, "reason": (str, "")}


class CheckResult(Value):
    """One named numerical check: passes when got equals expected."""

    __slots__ = {"name": str, "expected": object, "got": object, "rule": (str, "")}

    @property
    def passed(self) -> bool:
        return self.expected == self.got


class ClassificationCase(Value):
    """One row of the classification with its derived invariants."""

    __slots__ = {"label": str, "m": int, "nb": NormalBundle | None, "w": str, "degree": int,
                 "bs_dim": int, "construction": str, "assumes": (tuple, ()), "notes": (str, "")}

    @staticmethod
    def _validate(label, m, nb, w, degree, bs_dim, construction, assumes, notes):
        for assumption in assumes:
            if type(assumption) is not str:
                raise FanobaseError(f"a classification case needs strings as assumptions, got {assumption!r}")


# the six outcomes of prune, built once: values are immutable, so sharing them is safe
_CONE = CaseVerdict(PruneKind.CONE)
_RULED_SEXTIC = CaseVerdict(PruneKind.RULED_SEXTIC)
_PRODUCT = CaseVerdict(PruneKind.PRODUCT)
_NO_CONE = CaseVerdict(
    PruneKind.EXCLUDED,
    reason="a cone image needs a >= 1 once b = -2 (ample -K on the exceptional surface fails otherwise)",
)
_NOT_EQUAL = CaseVerdict(PruneKind.EXCLUDED, reason="equal splitting type with Fano total space forces a = b = 0")
_NOT_RULED = CaseVerdict(
    PruneKind.EXCLUDED,
    reason="a ruled image with a > b forces a <= 0 (ideal-sequence section count), so (a, b) = (0, -1)",
)


def prune(a: int, b: int) -> CaseVerdict:
    """Classify a splitting type (a, b), a >= b >= -2.

    Survivors are the cone family (b = -2, a >= 1), the ruled sextic
    case (0, -1) and the product case (0, 0); everything else is
    excluded with the arithmetical rule that kills it.
    """
    if type(a) is not int or type(b) is not int:
        require_integers("a splitting type", (a, b))
    if b < -2 or a < b:
        raise OutOfRange(f"need a >= b >= -2, got ({a}, {b})")
    if b == -2:
        return _CONE if a >= 1 else _NO_CONE
    if (a, b) == (0, -1):
        return _RULED_SEXTIC
    if (a, b) == (0, 0):
        return _PRODUCT
    return _NOT_EQUAL if a == b else _NOT_RULED


def quadric_sextic_case() -> ClassificationCase:
    return ClassificationCase(
        label="i",
        m=2,
        nb=None,
        w="Quadric",
        degree=2,
        bs_dim=0,
        construction=(
            "complete intersection of a quadric in the four weight-1 coordinates "
            "and a sextic in P(1,1,1,1,2,3)"
        ),
        assumes=("general elephant with Du Val singularities",),
        notes=(
            "base locus is the single point [0:0:0:0:-1:1]; every anticanonical "
            "member is singular there (ordinary double point on the general one)"
        ),
    )


def ruled_sextic_case() -> ClassificationCase:
    return ClassificationCase(
        label="ii-a",
        m=3,
        nb=NormalBundle(0, -1),
        w="Sigma(1)",
        degree=4,
        bs_dim=1,
        construction=(
            "blowup of a sextic hypersurface in P(1,1,1,2,3) along a complete "
            "intersection curve of arithmetic genus 1"
        ),
        assumes=(
            "extremal contraction classification for the section surface",
            "base point free theorem for the supporting divisor",
        ),
        notes=(
            "on the resolved elephant the anticanonical restriction is a section "
            "plus fibers; the case record uses m = 3, matching degree 4 = 2m - 2"
        ),
    )


def product_case() -> ClassificationCase:
    return ClassificationCase(
        label="ii-b",
        m=4,
        nb=NormalBundle(0, 0),
        w="P1xP1",
        degree=6,
        bs_dim=1,
        construction="product of a degree-1 del Pezzo surface with Du Val singularities and the line",
        assumes=("ruling contraction induces the product structure",),
    )


def cone_case(m: int) -> ClassificationCase:
    """The degree 2m - 2 case over the cone; valid input for any m >= 3.

    Enumeration only emits 3 <= m <= 12; larger m builds a case record
    whose verification fails at the branch analysis, which is the
    mechanical reason the family stops.
    """
    nb = blowup.cone_case_normal_bundle(m)
    return ClassificationCase(
        label=f"ii-c({m})",
        m=m,
        nb=nb,
        w=f"Cone({m})",
        degree=2 * m - 2,
        bs_dim=1,
        construction=(
            f"anticanonical model of the blowup of the double cover of F({m},{m - 4},0) "
            "with tautological anticanonical pullback, along the section curve over B"
        ),
        assumes=(
            "terminal modification and flop program terminate",
            "A-D-E identification of the line-plus-cubic fiber configurations",
        ),
    )


def enumerate_cases() -> list:
    """All thirteen cases, ordered i, ii-a, ii-b, ii-c(3) ... ii-c(12)."""
    cases = [quadric_sextic_case(), ruled_sextic_case(), product_case()]
    cases.extend(cone_case(m) for m in range(3, 13))
    return cases


def _checks_quadric_sextic(case: ClassificationCase) -> list:
    full = WeightedCI((1, 1, 1, 1, 2, 3), (2, 6))
    minimal = WeightedCI((1, 1, 1, 1, 3), (6,))
    series = wps.hilbert_coeffs(full, 12)
    degree, integral = wps.anticanonical_degree(full)
    rule = "chi(-kK) = (2k+1) + k(k+1)(2k+1) deg/12"
    return [
        CheckResult("anticanonical sections", 4, wps.rr_chi(2, 1), rule),
        CheckResult("double anticanonical sections", 10, wps.rr_chi(2, 2), rule),
        CheckResult("triple anticanonical sections", 21, wps.rr_chi(2, 3), rule),
        CheckResult(
            "two presentations share one Hilbert series",
            tuple(series),
            tuple(wps.hilbert_coeffs(minimal, 12)),
            "the degree-2 generator cancels against the quadric relation",
        ),
        CheckResult(
            "ring inference recovers the minimal model",
            ((1, 1, 1, 1, 3), (6,)),
            wps.infer_ring(series),
        ),
        CheckResult(
            "anticanonical degree",
            (case.degree, True),
            (degree, integral),
            "amplitude^3 prod(e)/prod(w) = 12/6",
        ),
        CheckResult("degree from pencil form", case.degree, k3pencil.fano_degree(case.m)),
        CheckResult(
            "point base locus",
            case.bs_dim,
            k3pencil.base_locus_dimension(case.m),
            "(section + 2 fibers).section = 0 contracts the section",
        ),
        CheckResult(
            "section pairing vanishes at m = 2",
            0,
            k3pencil.dot(PencilClass(1, 2), PencilClass(1, 0)),
        ),
    ]


def _checks_ruled_sextic(case: ClassificationCase) -> list:
    from fractions import Fraction  # here, its only use, so importing this module loads no fractions/decimal
    sextic = WeightedCI((1, 1, 1, 2, 3), (6,))
    degree, integral = wps.anticanonical_degree(sextic)
    closed_form = tuple(1 + k * (8 + 3 * k + k * k) // 6 for k in range(21))
    return [
        CheckResult(
            "blowup degree",
            case.degree,
            blowup.blowup_degree(BlowupStep(8, 2, 1)),
            "new = old - 2(-K.C) - 2 + 2g on the genus-1 curve of degree 2",
        ),
        CheckResult(
            "sextic Hilbert closed form",
            closed_form,
            tuple(wps.hilbert_coeffs(sextic, 20)),
            "h^0(kH) = 1 + k(8 + 3k + k^2)/6",
        ),
        CheckResult(
            "anticanonical degree of the sextic",
            (Fraction(8), True),
            (degree, integral),
            "-K = 2H with H^3 = 1, so (-K)^3 = 8",
        ),
        CheckResult("hyperplane cube", Fraction(1), Fraction(6, 1 * 1 * 1 * 2 * 3)),
        CheckResult(
            "exceptional surface index",
            1,
            blowup.exceptional_surface_index(case.nb),
        ),
        CheckResult("pencil multiplicity from splitting type", case.m, case.nb.m),
        CheckResult("degree from pencil form", case.degree, k3pencil.fano_degree(case.m)),
        CheckResult("curve base locus", case.bs_dim, k3pencil.base_locus_dimension(case.m)),
    ]


def _checks_product(case: ClassificationCase) -> list:
    return [
        CheckResult("product degree", case.degree, blowup.product_degree(1),
                    "6 x (del Pezzo degree)"),
        CheckResult(
            "exceptional surface index",
            0,
            blowup.exceptional_surface_index(case.nb),
        ),
        CheckResult("pencil multiplicity from splitting type", case.m, case.nb.m),
        CheckResult("degree from pencil form", case.degree, k3pencil.fano_degree(case.m)),
        CheckResult(
            "ruling coefficient",
            2,
            blowup.decomposition_fiber_coeff(case.nb.a),
            "-K = Z + (a+2)F with a = 0",
        ),
        CheckResult("curve base locus", case.bs_dim, k3pencil.base_locus_dimension(case.m)),
    ]


_SIGMA4_SECTION = minimal_section(4)  # the curve the residual of every cone case misses

# the passing records of the nine cone checks whose values do not depend on m, built once.
# A CheckResult is immutable, so handing one out at every m is safe: _shared returns it only
# when a fresh record would equal it, and any other pair (the verdict for m >= 13, the fixed
# component at m = 3, a row's own bs_dim) gets a fresh record, as before
_VERDICT = CheckResult("branch analysis verdict", cover._PASSES, cover._PASSES,
                       "generic fiber multiplicity <= 3 at the distinguished point")
_B_FORCED = CheckResult("fixed component multiplicity", 1, 1,
                        "one copy of B is forced for m >= 4; at m = 3 the branch can avoid B")
_ELLIPTIC_STAGE = CheckResult("elliptic stage degree", 0, 0)
_QUARTIC_CLASS = CheckResult("branch restricts to the standard quartic class", (4, 4, 12), (4, 4, 12))
_SPLITTING = CheckResult("forced splitting on Sigma_4", (1, (3, 12)), (1, (3, 12)),
                         "one copy of the minimal section splits off")
_MISSES_SECTION = CheckResult("residual misses the minimal section", 0, 0)
_GENUS = CheckResult("residual genus", 10, 10, "adjunction")
_MEETS_FIXED_PART = CheckResult("residual meets fixed part trivially", 0, 0, "R.B.Sigma = 0")
_CURVE_BASE_LOCUS = CheckResult("curve base locus", 1, 1)


def _shared(record: CheckResult, expected, got) -> CheckResult:
    """``record`` when expected and got are its fields, else a fresh record under its name and rule."""
    if expected == record.expected and got == record.got:
        return record
    return CheckResult(record.name, expected, got, record.rule)


def _checks_cone(case: ClassificationCase) -> list:
    m = case.m
    report = cover.analyze_cover(m)
    base, spec = report.base, report.spec

    # hyperplane section isomorphic to Sigma_4: the zero twist's coordinate has
    # class O(1), and its zero locus is F(m, m - 4); classes restrict with (h, f) kept
    sub = Scroll(m, m - 4)
    on_sigma4 = from_scroll(sub, spec.branch)
    mu, residual = hirzebruch.forced_minimal_decomposition(on_sigma4)

    # elliptic pencil chain on the elephant; O(1) restricts to O(1) on the same sub-scroll
    taut_on_sigma4 = from_scroll(sub, cover._TAUT)
    pulled = k3pencil.cover_pullback(taut_on_sigma4)
    reduced = k3pencil.blowup_section_reduce(pulled)

    return [
        _shared(_VERDICT, cover._PASSES, report.verdict),
        _shared(_B_FORCED, 1 if m >= 4 else 0, report.b_mult),
        CheckResult("cover degree", 4 * m - 8, cover.cover_degree(spec), "(-K)^3 = 2 delta"),
        CheckResult(
            "first blowup degree",
            case.degree,
            blowup.blowup_degree(BlowupStep(4 * m - 8, m - 4, 0)),
        ),
        _shared(_ELLIPTIC_STAGE, 0, blowup.blowup_degree(BlowupStep(2 * m - 2, m - 2, 0))),
        CheckResult("cone normal bundle", (m - 2, -2), (case.nb.a, case.nb.b)),
        CheckResult("pencil multiplicity from splitting type", m, case.nb.m),
        CheckResult(
            "exceptional surface matches the cone",
            m,
            blowup.exceptional_surface_index(case.nb),
        ),
        _shared(_QUARTIC_CLASS, (4, 4, 12), (on_sigma4.e, on_sigma4.xi, on_sigma4.fib)),
        _shared(_SPLITTING, (1, (3, 12)), (mu, (residual.xi, residual.fib))),
        _shared(_MISSES_SECTION, 0, hirzebruch.intersect2(residual, _SIGMA4_SECTION)),
        _shared(_GENUS, 10, hirzebruch.genus(residual)),
        _shared(_MEETS_FIXED_PART, 0,
                intersect(base, [report.residual_class, report.b_class, cover._TAUT])),
        CheckResult("elephant pullback", (2, m), (pulled.gamma, pulled.ell)),
        CheckResult("section blowdown", (1, m), (reduced.gamma, reduced.ell)),
        CheckResult("pencil normal form", m, k3pencil.saint_donat_form(reduced)),
        CheckResult("degree from pencil form", case.degree, k3pencil.fano_degree(m)),
        CheckResult(
            "fiber coefficient",
            m,
            blowup.decomposition_fiber_coeff(case.nb.a),
            "-K = Z + B + (a+2)F with a = m - 2",
        ),
        _shared(_CURVE_BASE_LOCUS, case.bs_dim, k3pencil.base_locus_dimension(m)),
    ]


def case_checks(case: ClassificationCase) -> list:
    """Evaluate the suite of the case's kind; never raises on a failing check.

    The point case has no normal bundle; the others follow :func:`prune`,
    whose six outcomes are shared values, so the suite is picked by identity.
    """
    if type(case) is not ClassificationCase:
        raise FanobaseError(f"case_checks needs a classification case, got {case!r}")
    if case.nb is None:
        return _checks_quadric_sextic(case)
    verdict = prune(case.nb.a, case.nb.b)
    if verdict is _CONE:
        return _checks_cone(case)
    if verdict is _RULED_SEXTIC:
        return _checks_ruled_sextic(case)
    if verdict is _PRODUCT:
        return _checks_product(case)
    raise OutOfRange(f"splitting type ({case.nb.a}, {case.nb.b}) is excluded: {verdict.reason}")


def verify_case(case: ClassificationCase) -> list:
    """Run the case suite and raise CheckFailure on the first failing check."""
    checks = case_checks(case)
    for check in checks:
        if not check.passed:
            raise CheckFailure(check)
    return checks
