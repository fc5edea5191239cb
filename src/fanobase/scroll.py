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
  ``e . d + f >= 0``, is filled for :func:`monomial_support` depth
  first from a stack, along the band split (below).  The rests of a
  band are classes, each with its own exponent range, down to rank 3,
  where one comprehension takes the band's last two coordinates.  What
  is left of a class from k_t on holds every monomial of its degree with
  e_1 >= k_t: a block, which up to rank 3 is a slice of a process-wide
  table of the full simplex of exponent pairs or triples of its degree,
  kept up to degree TABLE_DEGREE.  With no prefix the tables' own tuples
  go into the output, no copies.  Above that degree a table would cost
  more than the output (h + 1 pairs for a support of three), so only the
  slice is built: no exponent vector outside the support is visited, and
  the cost stays linear in the output.
* The exponent range.  With e_i = k fixed, the heaviest monomial puts
  the other h - k on D, the largest twist other than d_i, so k occurs
  in the support exactly when g(k) = k*d_i + (h - k)*D + f >= 0.  g is
  linear in k: the x_i-exponents over the support form an interval of
  0..h touching 0 or h, whose other end is one floor division.  The
  fiber and fixed-component multiplicities read off its two ends, and
  each valid e_1 = k leaves the non-empty system (h - k, f + k*d1) on
  F(d2, ..., dn), whose support is generated the same way.
* The band split counts the support without visiting it.  Riemann-Roch
  over the monomials of degree h with lo <= e_1 <= hi is one closed
  form: with j = h - e_1 and r = n - 1 the rest has C(j+r-1, r-1)
  monomials of total weight (f + h*d1 + 1)*C(j+r-1, r-1)
  + (delta - n*d1)*C(j+r-1, r), and the hockey-stick identity sums each
  binomial over j with two binomials.  The exponent range lo..hi splits
  at k_t = max(lo, ceil(P / (d1 - dn))), P = -f - h*dn: from k_t on,
  the rest (h - k, f + k*d1) on F(d2, ..., dn) is in the Riemann-Roch
  regime, every monomial in its support, so the range sum counts k_t..hi
  and only the rests of the band lo..k_t - 1 are walked.  With P <= 0
  the class itself is in that regime: k_t = lo = 0, the range 0..h and
  an empty band; no rest on a walk is.  A walk pops (offset, delta, h, f),
  delta = sum(d[offset:]) as its parent's less d1, down to rank 3.  At
  rank 2 the band is empty.  At rank 3 the rest of each k in the band
  lacks its x_2-exponents below j0(k) = ceil((-f - h*d3 - k*(d1 - d3))
  / (d2 - d3)), so the count is the range sum over lo..hi minus a
  deficit that is a polynomial in k and j0(k); with k = k_t - 1 - x, j0
  is the floor of a linear function of x, and the band sums of j0, x*j0
  and j0^2 are Euclid-style floor sums in O(log) steps.  With 1 in place of
  e . d + f + 1 the same split counts the support (:func:`support_size`).

Negative twists are allowed (they occur for the degree-4 family at
m = 3); every formula here holds verbatim for them.  Only
:func:`minimal_degree_data` insists on dn >= 0, because the image of
the tautological map is a cone over a scroll only in that range.
"""

from functools import total_ordering
from math import comb

from .errors import (
    ArityMismatch,
    BandTooWide,
    EmptySystem,
    FanobaseError,
    IndexOutOfRange,
    NegativeDegree,
    NegativeTwist,
    NotRigid,
    TooFewSummands,
    Value,
    checked,
    require_integers,
)


@total_ordering
class _Infinite:
    """Multiplicity of the empty system; larger than every integer."""

    __slots__ = ()
    _noun = "INFINITE"

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __lt__(self, other):
        return False

    def __hash__(self):
        return hash("fanobase.INFINITE")

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

# Most rank-3 closed forms a count at rank >= 4 may evaluate, as bounded
# by _walk_bound before the walk; a wider walk is refused, never capped.
# Each level of the bound is at most h + 1 exponents, so every class with
# h <= 40 up to rank 6 (the scroll-ladder benchmark draws ranks 4-6,
# h <= 40, twists -2..12) stays under it: 41**3 = 68 921.  A walk at the
# budget takes about 0.7 s (7 us per closed form, 2 vCPU Xeon, Python 3.11).
WALK_BUDGET = 10**5

# Highest degree whose full simplex of exponent pairs and triples stays in
# the process-wide table _SIMPLEX, keyed (n, h): 861 pairs and 12 341
# triples up to degree 40, 0.95 MB, and every block the fill of a rank-4
# class of degree <= 40 copies (the scroll-ladder draws h 20..40).
TABLE_DEGREE = 40
_SIMPLEX = {}


class DivisorClass(Value):
    """The class h*O(1) + f*F on a scroll; a pure value, addition componentwise."""

    __slots__ = {"h": int, "f": int}

    def __add__(self, other):
        if type(other) is not DivisorClass:
            return NotImplemented
        return DivisorClass(self.h + other.h, self.f + other.f)

    def __sub__(self, other):
        if type(other) is not DivisorClass:
            return NotImplemented
        return DivisorClass(self.h - other.h, self.f - other.f)

    def __neg__(self):
        return DivisorClass(-self.h, -self.f)

    def __mul__(self, k):
        if type(k) is not int:
            return NotImplemented
        return DivisorClass(self.h * k, self.f * k)

    __rmul__ = __mul__

    def __str__(self):
        return f"({self.h}, {self.f})"


class Scroll(Value):
    """F(d1, ..., dn); the constructor sorts twists non-increasing.

    Accepts either separate integer arguments ``Scroll(5, 1, 0)`` or a
    single list or tuple ``Scroll([5, 1, 0])``.
    """

    __slots__ = {"twists": tuple}

    def __init__(self, *twists):
        if len(twists) == 1 and type(twists[0]) in (list, tuple):
            twists = tuple(twists[0])
        for twist in twists:
            if type(twist) is not int:
                require_integers("a scroll", twists)
                break
        if len(twists) < 2:
            raise FanobaseError(f"a scroll needs at least two summands, got {twists!r}")
        self._store(tuple(sorted(twists, reverse=True)))

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
    big = d[1] if i == 1 else d[0]  # the largest twist other than d_i, d non-increasing
    g0, slope = h * big + f, d[i - 1] - big
    lo, hi = 0, h
    if slope > 0:
        lo = max(0, -(g0 // slope))
    elif slope < 0:
        hi = min(h, g0 // -slope)
    elif g0 < 0:
        return None
    return (lo, hi) if lo <= hi else None


def _simplex(n: int, h: int, k: int) -> tuple:
    """Every exponent vector of length n in {2, 3} and degree h with e_1 >= k, in table order.

    Table order is lexicographic.  Up to TABLE_DEGREE this is a slice of
    the process-wide table, so its own tuples: from offset k for pairs, for
    triples after the h + 1 - a triples of each a < k.  Above it only the
    slice is built, so the cost stays linear in the output.
    """
    table = _SIMPLEX.get((n, h))
    if table is None:
        big = h > TABLE_DEGREE
        start = k if big else 0
        table = (tuple(zip(range(start, h + 1), range(h - start, -1, -1), strict=True)) if n == 2
                 else tuple([(a, b, h - a - b) for a in range(start, h + 1) for b in range(h - a + 1)]))
        if big:
            return table
        _SIMPLEX[n, h] = table
    return table[k if n == 2 else k * (h + 1) - k * (k - 1) // 2:]


def _fill(d: tuple, h: int, f: int) -> set:
    """The support of ``|(h, f)|`` on F(d), d non-increasing, len(d) >= 2; empty when h < 0.

    Depth first from a stack, along the band split of :func:`_count`
    (module docstring).  A class (prefix, d, h, f) outside the
    Riemann-Roch regime takes its band lo <= k < k_t, at rank >= 4 by
    pushing the rests as classes and at rank 3 in one comprehension, and
    goes on from lo = k_t; a rank-2 class has an empty band, lo = k_t
    already.  What is left is a block (prefix, d, h, lo): every monomial
    of degree h with e_1 >= lo, as hi = h on every non-empty support.  Up
    to rank 3 it is the :func:`_simplex` slice, the tables' own tuples
    when the prefix is empty; from rank 4 it is peeled one coordinate at
    a time from lo, each rest a block with lo = 0.  Every item pushed is
    non-empty, and one of degree >= 1 pushes a child of degree 0, a
    monomial: the pops are at most twice the output.
    """
    out, stack = set(), [((), d, h, f)]
    while stack:
        prefix, d, h, f = stack.pop()
        lo = 0
        if f is not None:
            span = _exponent_range(d, h, f, 1)
            if span is None:
                continue
            lo, d1, dn = span[0], d[0], d[-1]
            p = -f - h * dn
            if p > 0:  # so d1 > dn, and x_1^h is in the support
                k_t = max(lo, -(-p // (d1 - dn)))
                if len(d) > 3:
                    rest = d[1:]
                    stack.extend((prefix + (k,), rest, h - k, f + k * d1) for k in range(lo, k_t))
                else:
                    # in the band k = e_2 runs from its least value j0 >= 1 in the support of
                    # (r, f + j*d1) on F(d2, d3) up to r (module docstring); d2 > d3 there, and
                    # at rank 2 the band is empty
                    d2 = d[1]
                    out.update([
                        prefix + (j, k, r - k)
                        for j in range(lo, k_t)
                        for r in (h - j,)
                        for k in range(-((f + j * d1 + r * dn) // (d2 - dn)), r + 1)
                    ])
                lo = k_t
        if len(d) <= 3:
            block = _simplex(len(d), h, lo)
            out.update([prefix + t for t in block] if prefix else block)
        elif h == 0:
            out.add(prefix + (0,) * len(d))
        else:
            rest = d[1:]
            stack.extend((prefix + (k,), rest, h - k, None) for k in range(lo, h + 1))
    return out


def _floor_sums(n: int, a: int, b: int, c: int) -> tuple:
    """(sum q, sum x*q, sum q*q) over x = 0..n-1 for q = (a*x + b) // c; a, b >= 0 and c > 0.

    Euclid-style, ``floor_sum`` of the AtCoder Library extended to the
    sums of x*q and q*q: reduce a and b mod c, then count the lattice
    points under the line the other way round, with the roles of a and c
    swapped.  Each level's sums are affine in the next level's, so one
    walk down the Euclid chain keeps each level's coefficients and one
    walk back up folds them: O(log) steps, and no frame per step.
    """
    levels = []
    while n > 0:
        qa, a = divmod(a, c)
        qb, b = divmod(b, c)
        m = (a * (n - 1) + b) // c
        levels.append((n, m, qa, qb))
        # q > i exactly for x > t(i) = (c*i + c - b - 1) // a, i = 0..m-1
        n, a, b, c = m, c, c - b - 1, a
    f = g = h = 0  # the last level has m = 0: its reduced sums are 0, and the update below keeps them 0
    for n, m, qa, qb in reversed(levels):
        s1, s2 = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
        f, g, h = (n - 1) * m - f, (m * n * (n - 1) - h - f) // 2, (n - 1) * m * m - 2 * g - f
        # add back q's quotients qa*x + qb; h reads f and g before they change
        h += qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * n + 2 * qa * g + 2 * qb * f
        f += qa * s1 + qb * n
        g += qa * s2 + qb * s1
    return f, g, h


def _range_sum(n: int, d1: int, delta: int, h: int, f: int, a: int, b: int, weighted: bool) -> int:
    """Riemann-Roch over degree h, 0 <= a <= e_1 <= b <= h, on n twists of top d1 and sum delta (module docstring)."""
    r = n - 1
    size = comb(h - a + r, r) - comb(h - b + r - 1, r)
    return size * (f + h * d1 + 1) + (delta - n * d1) * (
        comb(h - a + r, r + 1) - comb(h - b + r - 1, r + 1)) if weighted else size


def _count(d: tuple, h: int, f: int, weighted: bool) -> int:
    """Sum of e . d + f + 1 (weighted) or of 1 over the support of ``|(h, f)|`` on F(d), d non-increasing.

    The band split of the module docstring.  A class (offset, delta, h, f)
    carries the sum of its twists d[offset:]: sum(d) for the class asked,
    offset 0 and the only walk bounded (:func:`_walk_bound`), and delta - d1
    for each rest of a band, pushed on a stack.
    """
    n, dn, total, stack = len(d), d[-1], 0, [(0, sum(d), h, f)]
    while stack:
        i, delta, h, f = stack.pop()
        span = _exponent_range(d[i:i + 2], h, f, 1)
        if span is None:
            continue
        # P <= 0 (the Riemann-Roch regime) only for the class asked, with k_t = lo; d1 > dn when P > 0
        (lo, hi), d1, p = span, d[i], -f - h * dn
        k_t = max(lo, -(-p // (d1 - dn))) if p > 0 else lo
        if n - i <= 3:  # the whole range less the band's deficit (module docstring)
            total += _range_sum(n - i, d1, delta, h, f, lo, hi, weighted) - (
                _band_deficit(d[i:], h, f, lo, k_t, weighted) if k_t > lo else 0)
            continue
        bound = _walk_bound(d, h, f, lo, k_t) if p > 0 and not i else 0
        if bound > WALK_BUDGET:
            raise BandTooWide(f"counting ({h}, {f}) on F({','.join(map(str, d))}) may evaluate "
                              f"{bound} rank-3 closed forms, over the budget of {WALK_BUDGET}")
        total += _range_sum(n - i, d1, delta, h, f, k_t, hi, weighted)
        stack.extend((i + 1, delta - d1, h - k, f + k * d1) for k in range(lo, k_t))
    return total


def _walk_bound(d: tuple, h: int, f: int, lo: int, k_t: int) -> int:
    """Upper bound on the rank-3 closed forms the band walk of (h, f) on F(d), rank >= 4, evaluates.

    Below the first level every class on the walk has degree at most
    h - lo and P = -f - h*dn at most p = P - lo*(d1 - dn), since each
    exponent taken lowers P by k*(d_i - dn) >= 0.  So the band of a level
    whose largest twist is d_j > dn spans at most
    min(h - lo + 1, ceil(p / (d_j - dn))) exponents, and the bound is
    k_t - lo times these widths (at least 1 each) down to rank 4.  It is
    checked once, on the class asked: a class on the first level has band
    width at most ceil(p / (d2 - dn)), degree at most h - lo and its own p
    at most p, so each factor of its bound is at most the matching factor
    here, and its bound at most this one over k_t - lo >= 1; so on down.
    """
    dn = d[-1]
    p = -f - h * dn - lo * (d[0] - dn)
    bound = k_t - lo
    for dj in d[1:-3]:
        if dj > dn:
            bound *= max(1, min(h - lo + 1, -(-p // (dj - dn))))
    return bound


def _band_deficit(d: tuple, h: int, f: int, lo: int, k_t: int, weighted: bool) -> int:
    """Range sum minus count of the rest (h - k, f + k*d1) on F(d2, d3), summed over the band lo <= k < k_t.

    In the band the rest misses exactly its x_2-exponents j < j0(k) =
    ceil(P(k) / (d2 - d3)), P(k) = -f - h*d3 - k*(d1 - d3) >= 1, and the
    missed monomials weigh j*(d2 - d3) + 1 - P(k): the deficit is j0 or
    j0*(1 - P) + (d2 - d3)*j0*(j0 - 1)/2.  With x = k_t - 1 - k, j0 is
    the floor of a linear function of x, so the band sum takes three floor
    sums.  Needs lo < k_t, so d2 > d3: a tie d2 = d3 makes the band empty.
    """
    d1, d2, d3 = d
    a, e = d1 - d3, d2 - d3
    p = -f - h * d3 - (k_t - 1) * a
    sy, sxy, syy = _floor_sums(k_t - lo, a, p + e - 1, e)
    return (1 - p) * sy - a * sxy + e * (syy - sy) // 2 if weighted else sy


@checked
def h0(s: Scroll, c: DivisorClass) -> int:
    """Dimension of the space of sections of the class ``c`` on ``s``.

    The sum of e . d + c.f + 1 over the support, by the band split of the
    module docstring: Riemann-Roch range sums in closed form (0..h with an
    empty band when k_t = lo), and the rests of each band popped from a
    stack as offsets into the twists down to rank 3, where the band is
    summed by floor sums.  Up to rank 3 the cost is logarithmic in the
    numbers; from rank 4 on it follows the width of the band, not the
    number of monomials, and a walk that may take more than WALK_BUDGET
    rank-3 closed forms raises BandTooWide before it starts.  Returns 0
    for negative fiberwise degree.
    """
    return _count(s.twists, c.h, c.f, True)


@checked
def support_size(s: Scroll, c: DivisorClass) -> int:
    """Number of exponent vectors in :func:`monomial_support`, by the band split of :func:`h0`; 0 when c.h < 0."""
    return _count(s.twists, c.h, c.f, False)


@checked
def monomial_support(s: Scroll, c: DivisorClass) -> set:
    """Exponent vectors e, |e| = c.h, whose coefficient space is non-zero.

    The support of the generic member of ``|c|``, filled depth first
    along the band split of :func:`h0`: the rests of each band one
    exponent range at a time, and each Riemann-Roch rest as a whole block
    copied from the table of exponent pairs and triples.  No exponent
    vector outside the support is visited, so the cost stays linear in
    the size of the output.
    """
    if c.h < 0:
        raise NegativeDegree(f"class {c} has negative fiberwise degree")
    return _fill(s.twists, c.h, c.f)


@checked
def intersect(s: Scroll, classes: tuple[DivisorClass, ...]) -> int:
    """Top intersection number of ``rank`` divisor classes.

    Expanding the product of (h_i H + f_i F) with H^n = delta H^(n-1) F
    and F^2 = 0 leaves delta * prod(h_i) + sum_i f_i * prod_{j != i} h_j.
    Both are accumulated in one pass over the classes: after class i,
    ``prod_h`` is h_1 ... h_i and ``mixed`` the sum over j <= i of f_j
    times the other h's up to i, so mixed = mixed*h_i + prod_h*f_i with
    the product before h_i.  Symmetric and multilinear in its arguments,
    which are a list or a tuple of classes.
    """
    twists = s.twists
    if len(classes) != len(twists):
        raise ArityMismatch(
            f"{s!r} needs exactly {len(twists)} classes, got {len(classes)}"
        )
    prod_h, mixed = 1, 0
    for c in classes:
        mixed = mixed * c.h + prod_h * c.f
        prod_h *= c.h
    return sum(twists) * prod_h + mixed


@checked
def canonical_class(s: Scroll) -> DivisorClass:
    """Canonical class of the scroll: -n*O(1) + (delta - 2)*F.

    Relative Euler sequence plus the canonical class of the line.  The
    value is pinned by two facts checked in the test suite: on F(e, 0)
    it is the usual -2(minimal section) - (e+2)(fiber) after the basis
    change, and -K - O(1) is half the branch class of the anticanonical
    double covers.
    """
    return DivisorClass(-s.rank, s.delta() - 2)


@checked
def fixed_component_multiplicity(s: Scroll, comp: DivisorClass, sys: DivisorClass) -> int:
    """Number of copies of the rigid divisor ``comp`` fixed in ``|sys|``.

    Requires ``comp`` rigid, h^0(comp) = 1 with comp != (0, 0), and
    ``|sys|`` non-empty.  Rigidity is decided in closed form: a non-empty
    support of (h, f), h >= 1, holds x_1^h, whose weight h*d1 + f + 1 is
    the largest, so h^0 = 1 exactly when comp = (k, -k*d1) with k >= 1
    and d1 > d2 (a tie, or f > -k*d1, gives h^0 >= 2; f < -k*d1 gives 0;
    h = 0 gives f + 1).  ``h0`` is computed only for the NotRigid
    message, h0 >= 2 where that count is refused.  The one section of
    comp is x_1^k, and multiplying by it maps H^0(sys - comp) onto the
    span of the support monomials with e_1 >= k, so comp is fixed mu
    times exactly when every support monomial has e_1 >= mu*k: mu is the
    least x_1-exponent over the support, floor-divided by k: one
    ``_exponent_range`` call, whatever the size of the numbers.
    """
    k, d = comp.h, s.twists
    if k < 1 or comp.f != -k * d[0] or d[0] == d[1]:
        if k == 0 and comp.f == 0:
            raise NotRigid(f"the trivial class {comp} is contained in every system any number of times")
        try:  # a refused count is of a non-empty class, and the closed form rules out h0 = 1
            has = f"= {h0(s, comp)}"
        except BandTooWide:
            has = ">= 2"
        raise NotRigid(f"component {comp} on {s!r} has h0 {has}, need 1")
    span = _exponent_range(d, sys.h, sys.f, 1)
    if span is None:
        raise EmptySystem(f"system {sys} on {s!r} is empty")
    return span[0] // k


@checked
def fiber_multiplicity_at(s: Scroll, c: DivisorClass, i: int):
    """Multiplicity of the generic member of ``|c|`` at the i-th coordinate point of a fiber.

    The point where every fiber coordinate except x_i vanishes.  A
    monomial x^e vanishes there to order h - e_i, so the multiplicity
    is h minus the greatest x_i-exponent over the support, INFINITE
    when the support is empty, read from one ``_exponent_range`` call.
    Indices are 1-based, matching x_1 ... x_n.
    """
    d = s.twists
    if not 1 <= i <= len(d):
        raise IndexOutOfRange(f"index {i} not in 1..{len(d)}")
    if c.h < 0:
        raise NegativeDegree(f"class {c} has negative fiberwise degree")
    span = _exponent_range(d, c.h, c.f, i)
    return INFINITE if span is None else c.h - span[1]


@checked
def restrict_to_subscroll(s: Scroll, keep: tuple[int, ...], c: DivisorClass):
    """Sub-scroll on a subset of the summands, with the class restricted.

    ``keep`` is a list or a tuple of 1-based summand indices, at least two
    of them.  Classes restrict coefficient-wise, so the same (h, f) pair is
    returned together with the smaller scroll.
    """
    indices = sorted(set(keep))
    if len(indices) < 2:
        raise TooFewSummands(f"need at least two summands, got {indices}")
    for i in indices:
        if not 1 <= i <= s.rank:
            raise IndexOutOfRange(f"index {i} not in 1..{s.rank}")
    return Scroll(tuple(s.twists[i - 1] for i in indices)), c


@checked
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
