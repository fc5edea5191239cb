"""Exact divisor arithmetic on rational normal scrolls over the line.

The scroll F(d1, ..., dn) is the projectivized split bundle
O(d1) + ... + O(dn) on the projective line, d1 >= ... >= dn, a smooth
n-fold fibered in (n-1)-planes.  Its divisor class group is free of
rank two, generated by the tautological class O(1) (written H below)
and the fiber class F.

Conventions, fixed once for the whole package:

* A divisor class is an integer pair ``(h, f)`` meaning h*H + f*F.
  The classical system O(k) - l*F is encoded as ``(k, -l)``.
* Chow relations: ``H^n = delta * H^(n-1) * F``, ``F^2 = 0`` and
  ``H^(n-1) * F`` integrates to 1, where ``delta = d1 + ... + dn``.
* Section counting is over the support: writing x1, ..., xn for
  fiber coordinates dual to the summands, the coefficient of the
  fiberwise monomial x^e (|e| = h) in a member of ``(h, f)`` is a
  polynomial of degree ``e . d + f`` on the line, hence contributes
  ``max(0, e . d + f + 1)`` to h^0.  The support, the x^e with
  ``e . d + f >= 0``, is filled depth first from the exponent range
  below for :func:`monomial_support`, the last two coordinates in closed
  form (e_(n-1) over its range, e_n = h - e_(n-1)); no exponent vector
  outside it is visited, so the cost is linear in the output.
* The exponent range.  With e_i = k fixed, the heaviest monomial puts
  the other h - k on D, the largest twist other than d_i, so k occurs
  in the support exactly when g(k) = k*d_i + (h - k)*D + f >= 0.  g is
  linear in k: the x_i-exponents over the support form an interval of
  0..h touching 0 or h, whose other end is one floor division.  The
  fiber and fixed-component multiplicities read off its two ends, and
  each valid e_1 = k leaves the non-empty system (h - k, f + k*d1) on
  F(d2, ..., dn), whose support is generated the same way.
* The band split counts the support without visiting it.  When
  f + h*dn >= 0 every monomial is in the support and h^0 is the
  Riemann-Roch value C(h+n-1, n-1)*(f+1) + delta*C(h+n-1, n).
  Otherwise the x_1-exponents k of the exponent range split at
  k_t = ceil((-f - h*dn) / (d1 - dn)): from k_t on, the rest
  (h - k, f + k*d1) on F(d2, ..., dn) is in that regime, so its count
  is a polynomial p of degree n - 1 in k, summed over N values from a
  by forward differences, sum_i Delta^i p(a) * C(N, i+1); only the band
  below k_t recurses.  With 1 in place of e . d + f + 1 the same split
  counts the support (:func:`support_size`).

Negative twists are allowed (they occur for the degree-4 family at
m = 3); every formula here holds verbatim for them.  Only
:func:`minimal_degree_data` insists on dn >= 0, because the image of
the tautological map is a cone over a scroll only in that range.
"""

from functools import total_ordering
from math import comb

from .errors import (
    ArityMismatch,
    EmptySystem,
    FanobaseError,
    IndexOutOfRange,
    NegativeDegree,
    NegativeTwist,
    NotRigid,
    TooFewSummands,
    Value,
    require_integers,
)


@total_ordering
class _Infinite:
    """Multiplicity of the empty system; larger than every integer."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __lt__(self, other):
        return False

    def __hash__(self):
        return hash("fanobase.INFINITE")

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class DivisorClass(Value):
    """The class h*O(1) + f*F on a scroll; a pure value, addition componentwise."""

    __slots__ = ("h", "f")

    def __init__(self, h: int, f: int):
        require_integers("a divisor class", (h, f))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)

    def __add__(self, other):
        return DivisorClass(self.h + other.h, self.f + other.f)

    def __sub__(self, other):
        return DivisorClass(self.h - other.h, self.f - other.f)

    def __neg__(self):
        return DivisorClass(-self.h, -self.f)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return DivisorClass(self.h * k, self.f * k)

    __rmul__ = __mul__

    def __str__(self):
        return f"({self.h}, {self.f})"


class Scroll(Value):
    """F(d1, ..., dn); the constructor sorts twists non-increasing.

    Accepts either separate integer arguments ``Scroll(5, 1, 0)`` or a
    single iterable ``Scroll([5, 1, 0])``.
    """

    __slots__ = ("twists",)

    def __init__(self, *twists):
        if len(twists) == 1 and hasattr(twists[0], "__iter__"):
            twists = tuple(twists[0])
        require_integers("a scroll", twists)
        if len(twists) < 2:
            raise FanobaseError(f"a scroll needs at least two summands, got {twists!r}")
        object.__setattr__(self, "twists", tuple(sorted(twists, reverse=True)))

    @property
    def rank(self) -> int:
        """Number of bundle summands; equals the dimension of the total space."""
        return len(self.twists)

    def delta(self) -> int:
        """Sum of the twists; the top self-intersection of O(1)."""
        return sum(self.twists)

    def __repr__(self):
        return "F(" + ",".join(str(d) for d in self.twists) + ")"


def _exponent_range(d: tuple, h: int, f: int, i: int):
    """Least and greatest k = e_i with g(k) >= 0 on F(d) (module docstring); None if none, as for h < 0."""
    big = max(d[:i - 1] + d[i:])
    g0, slope = h * big + f, d[i - 1] - big
    lo, hi = 0, h
    if slope > 0:
        lo = max(0, -(g0 // slope))
    elif slope < 0:
        hi = min(h, g0 // -slope)
    elif g0 < 0:
        return None
    return (lo, hi) if lo <= hi else None


def _fill(out: set, prefix: tuple, d: tuple, h: int, f: int) -> None:
    """Add prefix + e to ``out`` for each e in the support of ``|(h, f)|`` on F(d), d non-increasing, len(d) >= 2.

    Depth first, one x_1-exponent range per level; the last two exponents
    are k over the range and h - k.  Nothing when h < 0.
    """
    span = _exponent_range(d, h, f, 1)
    if span is None:
        return
    lo, hi = span
    if len(d) == 2:
        out.update([prefix + (k, h - k) for k in range(lo, hi + 1)])
        return
    d1, rest = d[0], d[1:]
    for k in range(lo, hi + 1):
        _fill(out, prefix + (k,), rest, h - k, f + k * d1)


def _count(d: tuple, h: int, f: int, weighted: bool) -> int:
    """Sum of e . d + f + 1 (weighted) or of 1 over the support of ``|(h, f)|`` on F(d), d non-increasing.

    The band split of the module docstring; 0 when h < 0.
    """
    if h < 0:
        return 0
    n, dn = len(d), d[-1]
    if f + h * dn >= 0:
        size = comb(h + n - 1, n - 1)
        return size * (f + 1) + sum(d) * comb(h + n - 1, n) if weighted else size
    span = None if n == 1 else _exponent_range(d, h, f, 1)
    if span is None:
        return 0
    lo, hi = span
    d1, rest = d[0], d[1:]
    # d1 > dn here (equal twists give an empty or a Riemann-Roch system)
    k_t = max(lo, -((f + h * dn) // (d1 - dn)))
    # from k = k_t on, the count of the rest is a polynomial of degree < n in k:
    # sum it by forward differences, or directly when it has at most n terms
    tail = hi + 1 - k_t
    total = 0
    for k in range(lo, hi + 1 if tail <= n else k_t):
        total += _count(rest, h - k, f + k * d1, weighted)
    if tail <= n:
        return total
    values = [_count(rest, h - k, f + k * d1, weighted) for k in range(k_t, k_t + n)]
    for i in range(n):
        total += values[0] * comb(tail, i + 1)
        values = [b - a for a, b in zip(values, values[1:])]
    return total


def h0(s: Scroll, c: DivisorClass) -> int:
    """Dimension of the space of sections of the class ``c`` on ``s``.

    The sum of e . d + c.f + 1 over the support (module docstring), by
    the band split: the Riemann-Roch closed form when c.f + c.h*dn >= 0;
    otherwise a recursion over the x_1-exponents below k_t and, above it,
    a forward-difference sum of the rest's count, a polynomial of degree
    n - 1 in the exponent.  The cost follows the width of the band, not
    the number of monomials.  Returns 0 for negative fiberwise degree.
    """
    return _count(s.twists, c.h, c.f, True)


def support_size(s: Scroll, c: DivisorClass) -> int:
    """Number of exponent vectors in :func:`monomial_support`, by the band split of :func:`h0`; 0 when c.h < 0."""
    return _count(s.twists, c.h, c.f, False)


def monomial_support(s: Scroll, c: DivisorClass) -> set:
    """Exponent vectors e, |e| = c.h, whose coefficient space is non-zero.

    The support of the generic member of ``|c|``, filled depth first from
    the exponent range one coordinate at a time, the last two in closed
    form (e_(n-1) over its range, e_n the rest of the degree); no
    exponent vector outside it is visited, so the cost is linear in the
    size of the output.
    """
    if c.h < 0:
        raise NegativeDegree(f"class {c} has negative fiberwise degree")
    out = set()
    _fill(out, (), s.twists, c.h, c.f)
    return out


def intersect(s: Scroll, classes) -> int:
    """Top intersection number of ``rank`` divisor classes.

    Expanding the product of (h_i H + f_i F) with H^n = delta H^(n-1) F
    and F^2 = 0 leaves delta * prod(h_i) + sum_i f_i * prod_{j != i} h_j.
    Symmetric and multilinear in its arguments.
    """
    classes = list(classes)
    if len(classes) != s.rank:
        raise ArityMismatch(
            f"{s!r} needs exactly {s.rank} classes, got {len(classes)}"
        )
    prod_h = 1
    for c in classes:
        prod_h *= c.h
    mixed = 0
    for i, c in enumerate(classes):
        term = c.f
        for j, other in enumerate(classes):
            if j != i:
                term *= other.h
        mixed += term
    return s.delta() * prod_h + mixed


def canonical_class(s: Scroll) -> DivisorClass:
    """Canonical class of the scroll: -n*O(1) + (delta - 2)*F.

    Relative Euler sequence plus the canonical class of the line.  The
    value is pinned by two facts checked in the test suite: on F(e, 0)
    it is the usual -2(minimal section) - (e+2)(fiber) after the basis
    change, and -K - O(1) is half the branch class of the anticanonical
    double covers.
    """
    return DivisorClass(-s.rank, s.delta() - 2)


def fixed_component_multiplicity(s: Scroll, comp: DivisorClass, sys: DivisorClass) -> int:
    """Number of copies of the rigid divisor ``comp`` fixed in ``|sys|``.

    Requires h^0(comp) = 1 (a unique effective member), comp != (0, 0)
    and h^0(sys) > 0.  Such a class is (k, -k*d1) with k >= 1 and
    d1 > d2 (a tie, or f > -k*d1, gives h^0 >= 2), so its one section is
    x_1^k.  Multiplying by x_1^k maps H^0(sys - comp) onto the span of
    the support monomials with e_1 >= k, so comp is fixed mu times
    exactly when every support monomial has e_1 >= mu*k: mu is the
    least x_1-exponent over the support, floor-divided by k.
    """
    if h0(s, comp) != 1:
        raise NotRigid(f"component {comp} on {s!r} has h0 = {h0(s, comp)}, need 1")
    if comp == DivisorClass(0, 0):
        raise NotRigid(f"the trivial class {comp} is contained in every system any number of times")
    span = _exponent_range(s.twists, sys.h, sys.f, 1)
    if span is None:
        raise EmptySystem(f"system {sys} on {s!r} is empty")
    return span[0] // comp.h


def fiber_multiplicity_at(s: Scroll, c: DivisorClass, i: int):
    """Multiplicity of the generic member of ``|c|`` at the i-th coordinate point of a fiber.

    The point where every fiber coordinate except x_i vanishes.  A
    monomial x^e vanishes there to order h - e_i, so the multiplicity
    is h minus the greatest x_i-exponent over the support, INFINITE
    when the support is empty.  Indices are 1-based, matching x_1 ... x_n.
    """
    require_integers("a coordinate index", (i,))
    if not 1 <= i <= s.rank:
        raise IndexOutOfRange(f"index {i} not in 1..{s.rank}")
    if c.h < 0:
        raise NegativeDegree(f"class {c} has negative fiberwise degree")
    span = _exponent_range(s.twists, c.h, c.f, i)
    return INFINITE if span is None else c.h - span[1]


def restrict_to_subscroll(s: Scroll, keep, c: DivisorClass):
    """Sub-scroll on a subset of the summands, with the class restricted.

    ``keep`` is a collection of 1-based summand indices, at least two of
    them.  Classes restrict coefficient-wise, so the same (h, f) pair is
    returned together with the smaller scroll.
    """
    try:
        keep = tuple(keep)
    except TypeError:
        raise FanobaseError(f"summand indices must be a collection of integers, got {keep!r}") from None
    require_integers("summand indices", keep)
    indices = sorted(set(keep))
    if len(indices) < 2:
        raise TooFewSummands(f"need at least two summands, got {indices}")
    for i in indices:
        if not 1 <= i <= s.rank:
            raise IndexOutOfRange(f"index {i} not in 1..{s.rank}")
    return Scroll(tuple(s.twists[i - 1] for i in indices)), c


def minimal_degree_data(s: Scroll):
    """Degree and ambient dimension of the image of the tautological map.

    For dn >= 0 the image in P^(delta + n - 1) is a (cone over a)
    scroll of degree delta, so degree = codim + 1: a variety of minimal
    degree.
    """
    if s.twists[-1] < 0:
        raise NegativeTwist(f"{s!r} has a negative twist; no morphism onto a scroll cone")
    delta = s.delta()
    return delta, delta + s.rank - 1
