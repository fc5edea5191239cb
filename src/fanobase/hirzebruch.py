"""Divisor classes on Hirzebruch surfaces in the (minimal section, fiber) basis.

The surface Sigma_e is the rank-2 scroll F(e, 0), e >= 0.  A class is
written xi * (minimal section) + fib * (fiber) with the intersection
form xi^2 = -e, xi . fiber = 1, fiber^2 = 0.  The basis change to and
from scroll coordinates is

    (h, f) on F(d1, d2)  <->  (xi, fib) = (h, h*d1 + f) on Sigma_(d1-d2),

and negative-twist rank-2 presentations are normalized to F(e, 0) by
the scroll constructor, so every surface has a unique normal form here.
"""

from .errors import (
    EmptySystem,
    FanobaseError,
    NotEffectiveShape,
    RankMismatch,
    SurfaceMismatch,
    Value,
    require_integers,
)
from .scroll import DivisorClass, Scroll, fixed_component_multiplicity


class SurfaceClass(Value):
    """The class xi*s + fib*f on Sigma_e, with s the minimal section."""

    __slots__ = ("e", "xi", "fib")

    def __init__(self, e: int, xi: int, fib: int):
        if type(e) is not int or type(xi) is not int or type(fib) is not int:
            require_integers("a surface class", (e, xi, fib))
        if e < 0:
            raise FanobaseError(f"surface index must be non-negative, got {e}")
        set_e, set_xi, set_fib = self._set
        set_e(self, e)
        set_xi(self, xi)
        set_fib(self, fib)

    def _same_surface(self, other):
        if self.e != other.e:
            raise SurfaceMismatch(f"classes live on Sigma_{self.e} and Sigma_{other.e}")

    def __add__(self, other):
        self._same_surface(other)
        return SurfaceClass(self.e, self.xi + other.xi, self.fib + other.fib)

    def __sub__(self, other):
        self._same_surface(other)
        return SurfaceClass(self.e, self.xi - other.xi, self.fib - other.fib)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return SurfaceClass(self.e, self.xi * k, self.fib * k)

    __rmul__ = __mul__

    def __str__(self):
        return f"{self.xi} xi + {self.fib} f on Sigma_{self.e}"


def intersect2(c1: SurfaceClass, c2: SurfaceClass) -> int:
    """Intersection pairing -e*xi1*xi2 + xi1*fib2 + xi2*fib1."""
    if c1.e != c2.e:
        raise SurfaceMismatch(f"classes live on Sigma_{c1.e} and Sigma_{c2.e}")
    return -c1.e * c1.xi * c2.xi + c1.xi * c2.fib + c2.xi * c1.fib


def minimal_section(e: int) -> SurfaceClass:
    return SurfaceClass(e, 1, 0)


def canonical_surface_class(e: int) -> SurfaceClass:
    """K = -2*(minimal section) - (e+2)*(fiber)."""
    return SurfaceClass(e, -2, -(e + 2))


def genus(c: SurfaceClass) -> int:
    """Arithmetic genus by adjunction, 1 + c.(c + K)/2.

    Only classes of effective shape (xi >= 0) are accepted; the pairing
    c.(c + K) is always even for integral classes, which is asserted.
    """
    if c.xi < 0:
        raise NotEffectiveShape(f"{c} has negative section coefficient")
    pairing = intersect2(c, c + canonical_surface_class(c.e))
    assert pairing % 2 == 0, "adjunction pairing must be even"
    return 1 + pairing // 2


def from_scroll(s: Scroll, c: DivisorClass) -> SurfaceClass:
    """Basis change from a rank-2 scroll: (h, f) -> (h, h*d1 + f) on Sigma_(d1-d2)."""
    if s.rank != 2:
        raise RankMismatch(f"{s!r} is not a surface")
    d1, d2 = s.twists
    return SurfaceClass(d1 - d2, c.h, c.h * d1 + c.f)


def to_scroll(c: SurfaceClass):
    """Inverse basis change onto the normal form F(e, 0)."""
    return Scroll(c.e, 0), DivisorClass(c.xi, c.fib - c.xi * c.e)


def forced_minimal_decomposition(c: SurfaceClass):
    """Split off the copies of the minimal section fixed in ``|c|``.

    ``|c|`` is non-empty exactly when xi >= 0 and fib >= 0 (the top
    support monomial has weight fib), otherwise EmptySystem.  On Sigma_e,
    e >= 1, the minimal section is the rigid class (1, -e) of F(e, 0), so
    its multiplicity mu is the scroll's fixed-component count, read off
    the exponent range in closed form; on Sigma_0 nothing is fixed.
    Returns (mu, residual) with residual . xi >= 0.
    """
    if c.xi < 0 or c.fib < 0:
        raise EmptySystem(f"|{c}| is empty")
    surface, scroll_class = to_scroll(c)
    mu = fixed_component_multiplicity(surface, DivisorClass(1, -c.e), scroll_class) if c.e else 0
    return mu, c - mu * minimal_section(c.e)
