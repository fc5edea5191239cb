"""Rank-2 lattice arithmetic for the elliptic pencil on an anticanonical K3.

On a minimal desingularization of the general anticanonical member,
the restricted anticanonical system has the normal form

    Gamma + m*f,   m >= 2,

with Gamma a rational section (Gamma^2 = -2) and |f| an elliptic pencil
(f^2 = 0, Gamma . f = 1).  This module is plain arithmetic in that
lattice: the Gram matrix [[-2, 1], [1, 0]], the normal form, the base
locus dichotomy (a point exactly when m = 2), the degree formula
2m - 2, and the pullback and blowdown steps that connect the double
cover family to the normal form.
"""

from .errors import FanobaseError, InvalidM, NoSection, NotElephantShape, Value, WrongSurface, require_integers
from .hirzebruch import SurfaceClass


class PencilClass(Value):
    """gamma*(section) + ell*(elliptic fiber) in the rank-2 lattice."""

    __slots__ = ("gamma", "ell")

    def __init__(self, gamma: int, ell: int):
        if type(gamma) is not int or type(ell) is not int:
            require_integers("a pencil class", (gamma, ell))
        set_gamma, set_ell = self._set
        set_gamma(self, gamma)
        set_ell(self, ell)

    def __add__(self, other):
        if type(other) is not PencilClass:
            return NotImplemented
        return PencilClass(self.gamma + other.gamma, self.ell + other.ell)

    def __sub__(self, other):
        if type(other) is not PencilClass:
            return NotImplemented
        return PencilClass(self.gamma - other.gamma, self.ell - other.ell)

    def __str__(self):
        return f"{self.gamma} Gamma + {self.ell} f"


def dot(c1: PencilClass, c2: PencilClass) -> int:
    """Lattice pairing -2*g1*g2 + g1*l2 + g2*l1."""
    if type(c1) is not PencilClass or type(c2) is not PencilClass:
        raise FanobaseError(f"dot needs two pencil classes, got {c1!r} and {c2!r}")
    return -2 * c1.gamma * c2.gamma + c1.gamma * c2.ell + c2.gamma * c1.ell


def square(c: PencilClass) -> int:
    return dot(c, c)


def saint_donat_form(c: PencilClass) -> int:
    """Extract m from the normal form (section) + m*(fiber), m >= 2."""
    if type(c) is not PencilClass:
        raise FanobaseError(f"saint_donat_form needs a pencil class, got {c!r}")
    if c.gamma != 1 or c.ell < 2:
        raise NotElephantShape(f"{c} is not of the form Gamma + m f with m >= 2")
    return c.ell


def base_locus_dimension(m: int) -> int:
    """0 (a single point) when m = 2, else 1 (a rational curve).

    m = 2 is exactly the case (Gamma + m f).Gamma = 0, where the section
    is contracted and the base locus degenerates to a point.
    """
    if type(m) is not int:
        require_integers("a pencil multiplicity", (m,))
    if m < 2:
        raise InvalidM(f"need m >= 2, got {m}")
    return 0 if m == 2 else 1


def fano_degree(m: int) -> int:
    """Anticanonical cube 2m - 2, the square of the normal-form class."""
    if type(m) is not int:
        require_integers("a pencil multiplicity", (m,))
    if m < 2:
        raise InvalidM(f"need m >= 2, got {m}")
    degree = 2 * m - 2
    assert degree == square(PencilClass(1, m))
    return degree


def cover_pullback(c: SurfaceClass) -> PencilClass:
    """Pull a Sigma_4 class back through the ramified double cover.

    The minimal section lies in the branch locus, so it pulls back with
    multiplicity two; fibers pull back to pencil fibers.  Squares double.
    """
    if type(c) is not SurfaceClass:
        raise FanobaseError(f"cover_pullback needs a surface class, got {c!r}")
    if c.e != 4:
        raise WrongSurface(f"pullback is defined on Sigma_4, got Sigma_{c.e}")
    return PencilClass(2 * c.xi, c.fib)


def blowup_section_reduce(c: PencilClass) -> PencilClass:
    """Subtract one copy of the section: the effect of blowing it up."""
    if type(c) is not PencilClass:
        raise FanobaseError(f"blowup_section_reduce needs a pencil class, got {c!r}")
    if c.gamma < 1:
        raise NoSection(f"{c} has no section summand to remove")
    return PencilClass(c.gamma - 1, c.ell)
