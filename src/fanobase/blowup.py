"""Degree and normal-bundle bookkeeping for blowups along rational curves.

Blowing up a curve C of genus g on a Gorenstein threefold changes the
anticanonical cube by

    new = old - 2*(-K . C) - 2 + 2g,

and for a smooth rational curve with normal bundle O(a) + O(b) the
exceptional surface is the Hirzebruch surface of index a - b.  The
splitting type also carries the pencil multiplicity through
m = a + b + 4.  These four facts, plus the product formula 6d for a
degree-d del Pezzo surface times the line, are all the blowup calculus
the classification needs.
"""

from .errors import FanobaseError, InvalidDegree, InvalidM, Value, checked


class NormalBundle(Value):
    """Splitting type O(a) + O(b), a >= b, of the normal bundle of a rational curve."""

    __slots__ = {"a": int, "b": int}
    _noun = "a splitting type"

    @staticmethod
    def _validate(a, b):
        if a < b:
            raise FanobaseError(f"splitting type needs a >= b, got ({a}, {b})")

    @property
    def m(self) -> int:
        """Pencil multiplicity a + b + 4 attached to this splitting type."""
        return self.a + self.b + 4


class BlowupStep(Value):
    """One blowup: ambient (-K)^3, the curve degree -K.C, and the curve genus."""

    __slots__ = {"ambient_degree": int, "curve_degree": int, "genus": int}

    @staticmethod
    def _validate(ambient_degree, curve_degree, genus):
        if genus < 0:
            raise FanobaseError(f"curve genus must be non-negative, got {genus}")


@checked
def blowup_degree(step: BlowupStep) -> int:
    """Anticanonical cube after blowing up the curve."""
    return step.ambient_degree - 2 * step.curve_degree - 2 + 2 * step.genus


@checked
def exceptional_surface_index(nb: NormalBundle) -> int:
    """Index of the Hirzebruch surface P(N*) over the curve: a - b."""
    return nb.a - nb.b


@checked
def cone_case_normal_bundle(m: int) -> NormalBundle:
    """Splitting type (m-2, -2) forced when the anticanonical image is a cone."""
    if m < 3:
        raise InvalidM(f"cone case needs m >= 3, got {m}")
    return NormalBundle(m - 2, -2)


@checked
def decomposition_fiber_coeff(a: int) -> int:
    """Fiber coefficient a + 2 in the decomposition of -K after the section blowup."""
    return a + 2


@checked
def product_degree(dp_degree: int) -> int:
    """(-K)^3 of (del Pezzo surface of degree d) x (line): 6d."""
    if dp_degree < 1:
        raise InvalidDegree(f"del Pezzo degree must be >= 1, got {dp_degree}")
    return 6 * dp_degree
