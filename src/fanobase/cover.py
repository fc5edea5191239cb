"""Branch-divisor analysis for anticanonical double covers of threefold scrolls.

A double cover mu: U -> W branched along D = 2L has canonical class
K_U = mu^*(K_W + L).  Asking -K_U to be the pullback of O(1) forces
L = -K_W - O(1), so on a rank-3 scroll the branch class is determined
by the twists alone:

    L = (2, 2 - delta),   D = (4, 4 - 2*delta).

For the one-parameter family over W = F(m, m-4, 0) this is the system
O(4) - (4m - 12)F.  The family degenerates as m grows: the unique
member B of |O(1) - mF| is a fixed component of the branch system, and
for m >= 13 the generic member acquires a fourfold point on the
distinguished fiber (four concurrent lines in the fiber plane), which
is worse than Du Val.  :func:`analyze_cover` runs that whole pipeline
and reports the verdict; multiplicity <= 3 at the distinguished point
is the necessary condition for canonical singularities that cuts the
family down to 3 <= m <= 12.
"""

from enum import Enum

from .errors import InvalidM, Value, WrongRank, require_integers
from .scroll import (
    INFINITE,
    DivisorClass,
    Scroll,
    fiber_multiplicity_at,
    fixed_component_multiplicity,
    intersect,
)


class Verdict(Enum):
    """Outcome of the Du Val necessary condition at the distinguished fiber point."""

    PASSES_DU_VAL_NECESSARY = "passes-du-val-necessary"
    FAILS_DU_VAL_NECESSARY = "fails-du-val-necessary"

    @property
    def passed(self) -> bool:
        return self is Verdict.PASSES_DU_VAL_NECESSARY


class DoubleCoverSpec(Value):
    """Base scroll with branch class D and its half L, D = 2L."""

    __slots__ = ("base", "branch", "half")

    def __init__(self, base: Scroll, branch: DivisorClass, half: DivisorClass):
        set_base, set_branch, set_half = self._set
        set_base(self, base)
        set_branch(self, branch)
        set_half(self, half)


class BranchReport(Value):
    """Everything the branch pipeline establishes for one value of m.

    ``spec`` is the :class:`DoubleCoverSpec` (base, D, L) the analysis ran
    on; the base scroll is read as ``base``.  ``residual_class`` is the
    class complement R = D - B of one copy of the rigid member B, the
    decomposition the fiber geometry uses (line plus cubic); ``b_mult`` is
    the multiplicity with which B is actually forced into the generic
    member, which is 1 for m >= 4 and 0 for m = 3, where the branch can be
    chosen to avoid B entirely.
    """

    __slots__ = ("m", "spec", "b_class", "b_mult", "residual_class", "fiber_mult", "verdict")

    def __init__(self, m: int, spec: DoubleCoverSpec, b_class: DivisorClass, b_mult: int,
                 residual_class: DivisorClass, fiber_mult, verdict: Verdict):
        (set_m, set_spec, set_b_class, set_b_mult, set_residual, set_fiber_mult,
         set_verdict) = self._set
        set_m(self, m)
        set_spec(self, spec)
        set_b_class(self, b_class)
        set_b_mult(self, b_mult)
        set_residual(self, residual_class)
        set_fiber_mult(self, fiber_mult)
        set_verdict(self, verdict)

    @property
    def base(self) -> Scroll:
        return self.spec.base

    def to_dict(self) -> dict:
        """The one output record: CLI text and JSON render it."""
        branch = self.spec.branch
        return {
            "m": self.m,
            "base": list(self.spec.base.twists),
            "branch": [branch.h, branch.f],
            "b_class": [self.b_class.h, self.b_class.f],
            "b_mult": self.b_mult,
            "residual": [self.residual_class.h, self.residual_class.f],
            "fiber_mult": "infinite" if self.fiber_mult == INFINITE else self.fiber_mult,
            "verdict": self.verdict.value,
        }


def branch_for_taut_anticanonical(s: Scroll) -> DoubleCoverSpec:
    """Branch data of the double cover whose -K pulls back O(1).

    Solving K_U = mu^*(K_W + L) = mu^*(-O(1)) gives L = -K_W - O(1) =
    (2, 2 - delta) on a rank-3 scroll, hence D = 2L.
    """
    if len(s.twists) != 3:
        raise WrongRank(f"cover bookkeeping needs a threefold base, got {s!r}")
    half = DivisorClass(2, 2 - sum(s.twists))
    return DoubleCoverSpec(base=s, branch=2 * half, half=half)


def cover_degree(spec: DoubleCoverSpec) -> int:
    """(-K)^3 of the cover: twice the top self-intersection of O(1)."""
    one = DivisorClass(1, 0)
    return 2 * intersect(spec.base, [one] * spec.base.rank)


def analyze_cover(m: int) -> BranchReport:
    """Full branch analysis of the double cover over F(m, m-4, 0).

    Builds the (sorted) base scroll and the branch class, kept on the
    report as ``spec``; measures how often the unique member B of
    |O(1) - mF| is forced into the generic branch member, computes the
    multiplicity of the generic branch member at the coordinate point of
    the smallest twist, and issues the Du Val necessary-condition
    verdict (multiplicity <= 3).  The identity R.B.Sigma = 0, which lets
    the residual cubic avoid the section curve, is asserted along the way.
    """
    if type(m) is not int:
        require_integers("the cover family parameter", (m,))
    if m < 3:
        raise InvalidM(f"the cover family starts at m = 3, got {m}")
    base = Scroll(m, m - 4, 0)
    spec = branch_for_taut_anticanonical(base)
    b = DivisorClass(1, -m)
    b_mult = fixed_component_multiplicity(base, b, spec.branch)
    residual = spec.branch - b
    # distinguished point: all coordinates vanish except the one dual to
    # the smallest twist (last after sorting)
    fiber_mult = fiber_multiplicity_at(base, spec.branch, base.rank)
    assert intersect(base, [residual, b, DivisorClass(1, 0)]) == 0
    passes = fiber_mult <= 3  # INFINITE orders above every integer
    return BranchReport(
        m=m,
        spec=spec,
        b_class=b,
        b_mult=b_mult,
        residual_class=residual,
        fiber_mult=fiber_mult,
        verdict=Verdict.PASSES_DU_VAL_NECESSARY if passes else Verdict.FAILS_DU_VAL_NECESSARY,
    )
