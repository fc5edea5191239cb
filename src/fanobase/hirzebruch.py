"""Divisor classes on Hirzebruch surfaces in the (minimal section, fiber) basis.

The surface Sigma_e is the rank-2 scroll F(e, 0), e >= 0.  A class is
written xi * (minimal section) + fib * (fiber) with the intersection
form xi^2 = -e, xi . fiber = 1, fiber^2 = 0.  The basis change to and
from scroll coordinates is

    (h, f) on F(d1, d2)  <->  (xi, fib) = (h, h*d1 + f) on Sigma_(d1-d2),

The scroll constructor only sorts the twists (F(3, -1) stays F(3, -1)).
:func:`from_scroll` reads any rank-2 presentation, negative twists
included, as Sigma_(d1-d2), and :func:`to_scroll` returns the normal form
F(e, 0), so every surface has a unique normal form here.
"""

from .errors import (
    EmptySystem,
    FanobaseError,
    NotEffectiveShape,
    RankMismatch,
    SurfaceMismatch,
    Value,
    checked,
)
from .scroll import DivisorClass, Scroll, _exponent_range


class SurfaceClass(Value):
    """The class xi*s + fib*f on Sigma_e, with s the minimal section."""

    __slots__ = {"e": int, "xi": int, "fib": int}

    @staticmethod
    def _validate(e, xi, fib):
        if e < 0:
            raise FanobaseError(f"surface index must be non-negative, got {e}")

    def _same_surface(self, other):
        if self.e != other.e:
            raise SurfaceMismatch(f"classes live on Sigma_{self.e} and Sigma_{other.e}")

    def __add__(self, other):
        if type(other) is not SurfaceClass:
            return NotImplemented
        self._same_surface(other)
        return SurfaceClass(self.e, self.xi + other.xi, self.fib + other.fib)

    def __sub__(self, other):
        if type(other) is not SurfaceClass:
            return NotImplemented
        self._same_surface(other)
        return SurfaceClass(self.e, self.xi - other.xi, self.fib - other.fib)

    def __mul__(self, k):
        if type(k) is not int:
            return NotImplemented
        return SurfaceClass(self.e, self.xi * k, self.fib * k)

    __rmul__ = __mul__

    def __str__(self):
        return f"{self.xi} xi + {self.fib} f on Sigma_{self.e}"


@checked
def intersect2(c1: SurfaceClass, c2: SurfaceClass) -> int:
    """Intersection pairing -e*xi1*xi2 + xi1*fib2 + xi2*fib1."""
    c1._same_surface(c2)
    return -c1.e * c1.xi * c2.xi + c1.xi * c2.fib + c2.xi * c1.fib


@checked
def minimal_section(e: int) -> SurfaceClass:
    return SurfaceClass(e, 1, 0)


@checked
def canonical_surface_class(e: int) -> SurfaceClass:
    """K = -2*(minimal section) - (e+2)*(fiber)."""
    return SurfaceClass(e, -2, -(e + 2))


@checked
def genus(c: SurfaceClass) -> int:
    """Arithmetic genus by adjunction, 1 + c.(c + K)/2.

    With K = -2*(minimal section) - (e+2)*(fiber), c + K = (xi - 2, fib - e - 2),
    so the pairing is -e*xi*(xi - 2) + xi*(fib - e - 2) + (xi - 2)*fib in
    closed form.  Only classes of effective shape (xi >= 0) are accepted;
    the pairing is always even for integral classes, which is asserted.
    """
    e, xi, fib = c.e, c.xi, c.fib
    if xi < 0:
        raise NotEffectiveShape(f"{c} has negative section coefficient")
    pairing = -e * xi * (xi - 2) + xi * (fib - e - 2) + (xi - 2) * fib
    assert pairing % 2 == 0, "adjunction pairing must be even"
    return 1 + pairing // 2


@checked
def from_scroll(s: Scroll, c: DivisorClass) -> SurfaceClass:
    """Basis change from a rank-2 scroll: (h, f) -> (h, h*d1 + f) on Sigma_(d1-d2)."""
    if s.rank != 2:
        raise RankMismatch(f"{s!r} is not a surface")
    d1, d2 = s.twists
    return SurfaceClass(d1 - d2, c.h, c.h * d1 + c.f)


@checked
def to_scroll(c: SurfaceClass):
    """Inverse basis change onto the normal form F(e, 0)."""
    return Scroll(c.e, 0), DivisorClass(c.xi, c.fib - c.xi * c.e)


@checked
def forced_minimal_decomposition(c: SurfaceClass):
    """Split off the copies of the minimal section fixed in ``|c|``.

    In the normal form F(e, 0) (:func:`to_scroll`) ``c`` is (xi, fib - e*xi),
    and the minimal section s = {x_1 = 0} is fixed mu times exactly while
    every support monomial has e_1 >= mu: mu is the least x_1-exponent over
    the support, read by ``scroll._exponent_range`` as in
    :func:`fixed_component_multiplicity`, max(0, xi - fib // e) for e >= 1
    and 0 on Sigma_0.  ``|c|`` is empty (EmptySystem) exactly when xi < 0 or
    fib < 0.  Returns (mu, residual = (xi - mu)s + fib*f), residual . s >= 0.
    """
    span = _exponent_range((c.e, 0), c.xi, c.fib - c.e * c.xi, 1)
    if span is None:
        raise EmptySystem(f"|{c}| is empty")
    return span[0], SurfaceClass(c.e, c.xi - span[0], c.fib)
