"""Hilbert series of weighted complete intersections and Riemann-Roch counts.

All series arithmetic is exact integer convolution on truncated power
series; nothing here ever touches a float.  The three tools are

* :func:`hilbert_coeffs`, the expansion of
  prod(1 - t^e_j) / prod(1 - t^w_i) to a given degree,
* :func:`rr_chi`, the anticanonical Riemann-Roch polynomial
  chi(-kK) = (2k + 1) + k(k+1)(2k+1) * deg / 12 of a Gorenstein Fano
  threefold (chi = h^0 for these classes, by vanishing), and
* :func:`infer_ring`, the greedy generator/relation inference that
  turns a dimension count sequence back into a minimal
  complete-intersection model.

Both expansions run through :func:`_series`, whose docstring gives its step forms.
"""

from itertools import accumulate
from math import prod
from operator import sub

from .errors import (
    FanobaseError,
    Inconsistent,
    ModelTooLarge,
    NonIntegralChi,
    Value,
    WrongDimension,
    require_integers,
)

DEFAULT_TRUNCATION = 24
# most generators plus relations in the model infer_ring returns; a larger
# model is refused before it is built.  It bounds the size of the output
# (``wps infer --series 1,1000000000000`` asks for 10^12 generators), not
# the work of a loop
MODEL_LIMIT = 10**5


class WeightedCI(Value):
    """Weights (w_0, ..., w_N) and relation degrees (e_1, ..., e_c) of a weighted complete intersection."""

    __slots__ = ("weights", "rel_degrees")

    def __init__(self, weights: tuple, rel_degrees: tuple = ()):
        try:
            weights, rels = tuple(weights), tuple(rel_degrees)
        except TypeError:
            raise FanobaseError("weights and relation degrees must be sequences of integers") from None
        require_integers("a weighted complete intersection", weights + rels)
        if not weights or any(w < 1 for w in weights):
            raise FanobaseError(f"weights must be positive integers, got {weights!r}")
        if any(e < 2 for e in rels):
            raise FanobaseError(f"relation degrees must be integers >= 2, got {rels!r}")
        if len(rels) >= len(weights):
            raise FanobaseError("need fewer relations than weights (positive dimension)")
        set_weights, set_rels = self._set
        set_weights(self, weights)
        set_rels(self, rels)

    @property
    def dimension(self) -> int:
        return len(self.weights) - 1 - len(self.rel_degrees)

    def amplitude(self) -> int:
        """Sum of weights minus sum of relation degrees; the adjunction twist of -K."""
        return sum(self.weights) - sum(self.rel_degrees)


def _series(gen_degrees, rel_degrees, n_max: int) -> list:
    """Integer expansion of prod(1 - t^e)/prod(1 - t^w) to degree n_max.

    Multiplying by 1 - t^e subtracts the list shifted by e, as one
    ``map(sub, ...)`` pass in C (empty when e > n_max).  Dividing by
    1 - t^w replaces each residue class mod w by its prefix sums: one
    ``accumulate`` per class when 16 * w <= n_max, so that every class is
    long, and the element loop otherwise, because each ``accumulate``
    pass has a fixed cost and on short classes the loop measured faster.
    """
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    # both bounds are hoisted, so a model of many generators at a tiny
    # n_max pays no more per step than the bare element loop
    top = n_max + 1
    longest = n_max // 16  # the largest weight with 16 * w <= n_max
    for w in gen_degrees:
        if w > longest:
            for k in range(w, top):
                coeffs[k] += coeffs[k - w]
        else:
            for r in range(w):
                coeffs[r::w] = accumulate(coeffs[r::w])
    for e in rel_degrees:
        coeffs[e:] = map(sub, coeffs[e:], coeffs[:-e])
    return coeffs


def hilbert_coeffs(x: WeightedCI, n_max: int = DEFAULT_TRUNCATION) -> list:
    """Graded dimensions of the coordinate ring of ``x`` up to degree n_max."""
    if type(x) is not WeightedCI:
        raise FanobaseError(f"hilbert_coeffs needs a weighted complete intersection, got {x!r}")
    require_integers("a truncation degree", (n_max,))
    if n_max < 0:
        raise FanobaseError(f"n_max must be non-negative, got {n_max}")
    return _series(x.weights, x.rel_degrees, n_max)


def anticanonical_degree(x: WeightedCI):
    """(-K)^3 of a complete-intersection threefold, as an exact rational.

    For dimension N - c = 3 the degree is amplitude^3 * prod(e) / prod(w).
    Returns the Fraction together with a flag telling whether it is an
    integer >= 1 (the Gorenstein Fano range).
    """
    # imported here, its only use, so importing this module loads no fractions/decimal
    from fractions import Fraction

    if type(x) is not WeightedCI:
        raise FanobaseError(f"anticanonical_degree needs a weighted complete intersection, got {x!r}")
    if x.dimension != 3:
        raise WrongDimension(f"{x} has dimension {x.dimension}, need 3")
    value = Fraction(x.amplitude() ** 3 * prod(x.rel_degrees), prod(x.weights))
    return value, value.denominator == 1 and value >= 1


def rr_chi(degree: int, k: int) -> int:
    """Riemann-Roch value chi(-kK) = (2k+1) + k(k+1)(2k+1)*degree/12.

    Exact integer arithmetic; raises NonIntegralChi when 12 does not
    divide degree * k(k+1)(2k+1) (never for even degree).  For ample
    anticanonical classes higher cohomology vanishes, so this value is
    the section count h^0(-kK).
    """
    require_integers("a Riemann-Roch value", (degree, k))
    numerator = degree * k * (k + 1) * (2 * k + 1)
    if numerator % 12 != 0:
        raise NonIntegralChi(f"degree {degree}, twist {k}: chi is not an integer")
    return (2 * k + 1) + numerator // 12


def infer_ring(seq):
    """Minimal generator and relation degrees reproducing a dimension sequence.

    Degree by degree: a deficit of the candidate series against ``seq``
    is repaired with that many new generators of the current degree, a
    surplus with that many new relations.  The result reproduces ``seq``
    exactly to its full length.  A generator and a relation in the same
    degree cancel in any Hilbert series, so the returned model is the
    minimal one.  Raises Inconsistent when the input cannot be the
    dimension sequence of such a model (leading coefficient not 1, a
    negative entry, or the candidate driven below zero by relations),
    and ModelTooLarge, before building it, when the model would have more
    than MODEL_LIMIT generators and relations.
    """
    try:
        seq = list(seq)
    except TypeError:
        raise FanobaseError("a dimension sequence must be a sequence of integers") from None
    require_integers("a dimension sequence", seq)
    if len(seq) < 2:
        raise Inconsistent("need the sequence at least through degree 1")
    if seq[0] != 1:
        raise Inconsistent(f"coefficient 0 must be 1, got {seq[0]}")
    if any(v < 0 for v in seq):
        raise Inconsistent("dimension counts cannot be negative")
    n_max = len(seq) - 1
    gens: list = []
    rels: list = []
    for d in range(1, n_max + 1):
        # only degree d is read, and truncation commutes with every step
        candidate = _series(gens, rels, d)
        if candidate[d] < 0:
            raise Inconsistent(
                f"degree {d}: relations drove the model dimension to {candidate[d]}"
            )
        delta = seq[d] - candidate[d]
        if len(gens) + len(rels) + abs(delta) > MODEL_LIMIT:
            raise ModelTooLarge(
                f"degree {d}: the model would grow past {MODEL_LIMIT} generators and relations"
            )
        (gens if delta > 0 else rels).extend([d] * abs(delta))
    assert _series(gens, rels, n_max) == seq
    return tuple(gens), tuple(rels)
