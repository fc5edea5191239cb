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

from .errors import FanobaseError, InvalidM, Value, WrongRank, checked
from .scroll import (
    INFINITE,
    DivisorClass,
    Scroll,
    fiber_multiplicity_at,
    fixed_component_multiplicity,
    intersect,
)

_TAUT = DivisorClass(1, 0)  # O(1); -K of the cover is its pullback


class Verdict(Enum):
    """Outcome of the Du Val necessary condition at the distinguished fiber point."""

    PASSES_DU_VAL_NECESSARY = "passes-du-val-necessary"
    FAILS_DU_VAL_NECESSARY = "fails-du-val-necessary"

    @property
    def passed(self) -> bool:
        return self is Verdict.PASSES_DU_VAL_NECESSARY


# the two verdicts, bound once: a module global read is cheaper than an Enum member read
_PASSES = Verdict.PASSES_DU_VAL_NECESSARY
_FAILS = Verdict.FAILS_DU_VAL_NECESSARY


class DoubleCoverSpec(Value):
    """Base scroll and branch class D = 2L; the half L is read from D.

    A branch with an odd coefficient has no half and is refused.
    """

    __slots__ = {"base": Scroll, "branch": DivisorClass}
    _noun = "a double cover"

    @staticmethod
    def _validate(base, branch):
        if branch.h % 2 or branch.f % 2:
            raise FanobaseError(f"a double cover branches along twice a class, got {branch}")

    @property
    def half(self) -> DivisorClass:
        """L with D = 2L, the class in the double-cover formula K_U = mu^*(K_W + L)."""
        return DivisorClass(self.branch.h // 2, self.branch.f // 2)


class BranchReport(Value):
    """Everything the branch pipeline establishes for one value of m.

    Stored: ``spec``, the :class:`DoubleCoverSpec` (base and D, which L is
    read from) the analysis ran on; ``b_class``, the rigid member B;
    ``b_mult``, how often B is forced into the generic member (1 for m >= 4,
    0 for m = 3, where the branch can avoid B); ``fiber_mult`` at the
    distinguished point.
    Derived: ``base`` is ``spec.base``, ``residual_class`` is R = D - B (the
    line-plus-cubic split) and ``verdict`` is the Du Val rule ``fiber_mult <= 3``.
    """

    __slots__ = {"m": int, "spec": DoubleCoverSpec, "b_class": DivisorClass, "b_mult": int,
                 "fiber_mult": int | type(INFINITE)}

    @property
    def base(self) -> Scroll:
        return self.spec.base

    @property
    def residual_class(self) -> DivisorClass:
        return self.spec.branch - self.b_class

    @property
    def verdict(self) -> Verdict:
        return _PASSES if self.fiber_mult <= 3 else _FAILS  # INFINITE orders above every integer

    def to_dict(self) -> dict:
        """The one output record: CLI text and JSON render it."""
        branch, residual = self.spec.branch, self.residual_class
        return {
            "m": self.m,
            "base": list(self.spec.base.twists),
            "branch": [branch.h, branch.f],
            "b_class": [self.b_class.h, self.b_class.f],
            "b_mult": self.b_mult,
            "residual": [residual.h, residual.f],
            "fiber_mult": "infinite" if self.fiber_mult == INFINITE else self.fiber_mult,
            "verdict": self.verdict.value,
        }


@checked
def branch_for_taut_anticanonical(s: Scroll) -> DoubleCoverSpec:
    """Branch data of the double cover whose -K pulls back O(1).

    Solving K_U = mu^*(K_W + L) = mu^*(-O(1)) gives L = -K_W - O(1) =
    (2, 2 - delta) on a rank-3 scroll, hence D = 2L = (4, 4 - 2*delta).
    """
    if len(s.twists) != 3:
        raise WrongRank(f"cover bookkeeping needs a threefold base, got {s!r}")
    return DoubleCoverSpec(base=s, branch=DivisorClass(4, 4 - 2 * sum(s.twists)))


@checked
def cover_degree(spec: DoubleCoverSpec) -> int:
    """(-K)^3 of the cover: twice the top self-intersection of O(1)."""
    return 2 * intersect(spec.base, [_TAUT] * spec.base.rank)


@checked
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
    if m < 3:
        raise InvalidM(f"the cover family starts at m = 3, got {m}")
    base = Scroll(m, m - 4, 0)
    spec = branch_for_taut_anticanonical(base)
    b = DivisorClass(1, -m)
    b_mult = fixed_component_multiplicity(base, b, spec.branch)
    # distinguished point: all coordinates vanish except the one dual to
    # the smallest twist (last after sorting)
    fiber_mult = fiber_multiplicity_at(base, spec.branch, base.rank)
    report = BranchReport(m, spec, b, b_mult, fiber_mult)
    assert intersect(base, [report.residual_class, b, _TAUT]) == 0
    return report
