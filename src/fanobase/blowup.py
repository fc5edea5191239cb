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

from .errors import FanobaseError, InvalidDegree, InvalidM, Value, require_integers


class NormalBundle(Value):
    """Splitting type O(a) + O(b), a >= b, of the normal bundle of a rational curve."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if type(a) is not int or type(b) is not int:
            require_integers("a splitting type", (a, b))
        if a < b:
            raise FanobaseError(f"splitting type needs a >= b, got ({a}, {b})")
        set_a, set_b = self._set
        set_a(self, a)
        set_b(self, b)

    @property
    def m(self) -> int:
        """Pencil multiplicity a + b + 4 attached to this splitting type."""
        return self.a + self.b + 4


class BlowupStep(Value):
    """One blowup: ambient (-K)^3, the curve degree -K.C, and the curve genus."""

    __slots__ = ("ambient_degree", "curve_degree", "genus")

    def __init__(self, ambient_degree: int, curve_degree: int, genus: int):
        if type(ambient_degree) is not int or type(curve_degree) is not int or type(genus) is not int:
            require_integers("a blowup step", (ambient_degree, curve_degree, genus))
        if genus < 0:
            raise FanobaseError(f"curve genus must be non-negative, got {genus}")
        set_ambient, set_curve, set_genus = self._set
        set_ambient(self, ambient_degree)
        set_curve(self, curve_degree)
        set_genus(self, genus)


def blowup_degree(step: BlowupStep) -> int:
    """Anticanonical cube after blowing up the curve."""
    if type(step) is not BlowupStep:
        raise FanobaseError(f"blowup_degree needs a blowup step, got {step!r}")
    return step.ambient_degree - 2 * step.curve_degree - 2 + 2 * step.genus


def exceptional_surface_index(nb: NormalBundle) -> int:
    """Index of the Hirzebruch surface P(N*) over the curve: a - b."""
    if type(nb) is not NormalBundle:
        raise FanobaseError(f"exceptional_surface_index needs a normal bundle, got {nb!r}")
    return nb.a - nb.b


def cone_case_normal_bundle(m: int) -> NormalBundle:
    """Splitting type (m-2, -2) forced when the anticanonical image is a cone."""
    if type(m) is not int:
        require_integers("a cone case", (m,))
    if m < 3:
        raise InvalidM(f"cone case needs m >= 3, got {m}")
    return NormalBundle(m - 2, -2)


def decomposition_fiber_coeff(a: int) -> int:
    """Fiber coefficient a + 2 in the decomposition of -K after the section blowup."""
    if type(a) is not int:
        require_integers("a splitting degree", (a,))
    return a + 2


def product_degree(dp_degree: int) -> int:
    """(-K)^3 of (del Pezzo surface of degree d) x (line): 6d."""
    require_integers("a del Pezzo degree", (dp_degree,))
    if dp_degree < 1:
        raise InvalidDegree(f"del Pezzo degree must be >= 1, got {dp_degree}")
    return 6 * dp_degree
