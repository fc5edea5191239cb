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
* Section counting is monomial-by-monomial: writing x1, ..., xn for
  fiber coordinates dual to the summands, the coefficient of the
  fiberwise monomial x^e (|e| = h) in a member of ``(h, f)`` is a
  polynomial of degree ``e . d + f`` on the line, hence contributes
  ``max(0, e . d + f + 1)`` to h^0.

Negative twists are allowed (they occur for the degree-4 family at
m = 3); every formula here holds verbatim for them.  Only
:func:`minimal_degree_data` insists on dn >= 0, because the image of
the tautological map is a cone over a scroll only in that range.
"""

from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    EmptySystem,
    FanobaseError,
    IndexOutOfRange,
    NegativeDegree,
    NegativeTwist,
    NotRigid,
    TooFewSummands,
)

class _Infinite:
    """Multiplicity of the empty system; larger than every integer."""

    __slots__ = ()

    def __le__(self, other):
        return isinstance(other, _Infinite)

    def __lt__(self, other):
        return False

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return not isinstance(other, _Infinite)

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __hash__(self):
        return hash("fanobase.INFINITE")

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """The class h*O(1) + f*F on a scroll; a pure value, addition componentwise."""

    h: int
    f: int

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


class Scroll:
    """F(d1, ..., dn); the constructor sorts twists non-increasing.

    Accepts either separate integer arguments ``Scroll(5, 1, 0)`` or a
    single iterable ``Scroll([5, 1, 0])``.
    """

    __slots__ = ("twists",)

    def __init__(self, *twists):
        if len(twists) == 1 and not isinstance(twists[0], int):
            twists = tuple(twists[0])
        if len(twists) < 2:
            raise FanobaseError(f"a scroll needs at least two summands, got {twists!r}")
        if not all(isinstance(d, int) for d in twists):
            raise FanobaseError(f"twists must be integers, got {twists!r}")
        object.__setattr__(self, "twists", tuple(sorted(twists, reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError("Scroll is immutable")

    @property
    def rank(self) -> int:
        """Number of bundle summands; equals the dimension of the total space."""
        return len(self.twists)

    def delta(self) -> int:
        """Sum of the twists; the top self-intersection of O(1)."""
        return sum(self.twists)

    def __eq__(self, other):
        return isinstance(other, Scroll) and self.twists == other.twists

    def __hash__(self):
        return hash(("Scroll", self.twists))

    def __repr__(self):
        return "F(" + ",".join(str(d) for d in self.twists) + ")"


def _exponents(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponents(total - first, parts - 1):
            yield (first,) + rest


def h0(s: Scroll, c: DivisorClass) -> int:
    """Dimension of the space of sections of the class ``c`` on ``s``.

    Sum over all fiberwise monomials of degree c.h of the section count
    of the coefficient line bundle, max(0, e . d + c.f + 1).  Returns 0
    for negative fiberwise degree.
    """
    if c.h < 0:
        return 0
    d = s.twists
    total = 0
    for e in _exponents(c.h, s.rank):
        t = sum(ei * di for ei, di in zip(e, d)) + c.f
        if t >= 0:
            total += t + 1
    return total


def monomial_support(s: Scroll, c: DivisorClass) -> set:
    """Exponent vectors whose coefficient space is non-zero.

    The support of the generic member of ``|c|``: all e with |e| = c.h
    and e . d + c.f >= 0.
    """
    if c.h < 0:
        raise NegativeDegree(f"class {c} has negative fiberwise degree")
    d = s.twists
    return {
        e
        for e in _exponents(c.h, s.rank)
        if sum(ei * di for ei, di in zip(e, d)) + c.f >= 0
    }


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
    and h^0(sys) > 0.  Multiplication by the section of comp embeds
    H^0(sys - comp) into H^0(sys); equality of dimensions certifies
    that every member contains comp.  Walks the chain until the first
    h^0 drop, which comes within sys.h // comp.h + 1 steps: every rigid
    class other than (0, 0) has comp.h >= 1.
    """
    if h0(s, comp) != 1:
        raise NotRigid(f"component {comp} on {s!r} has h0 = {h0(s, comp)}, need 1")
    if comp == DivisorClass(0, 0):
        raise NotRigid(f"the trivial class {comp} is contained in every system any number of times")
    base = h0(s, sys)
    if base == 0:
        raise EmptySystem(f"system {sys} on {s!r} is empty")
    mu = 0
    while h0(s, sys - (mu + 1) * comp) == base:
        mu += 1
    return mu


def fiber_multiplicity_at(s: Scroll, c: DivisorClass, i: int):
    """Multiplicity of the generic member of ``|c|`` at the i-th coordinate point of a fiber.

    The point where every fiber coordinate except x_i vanishes.  A
    monomial x^e vanishes there to order h - e_i, so the multiplicity
    is the minimum of h - e_i over the support.  Returns INFINITE when
    the support is empty.  Indices are 1-based, matching x_1 ... x_n.
    """
    if not 1 <= i <= s.rank:
        raise IndexOutOfRange(f"index {i} not in 1..{s.rank}")
    support = monomial_support(s, c)
    if not support:
        return INFINITE
    return min(c.h - e[i - 1] for e in support)


def restrict_to_subscroll(s: Scroll, keep, c: DivisorClass):
    """Sub-scroll on a subset of the summands, with the class restricted.

    ``keep`` is a collection of 1-based summand indices, at least two of
    them.  Classes restrict coefficient-wise, so the same (h, f) pair is
    returned together with the smaller scroll.
    """
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
