"""Weighted Hilbert series, Riemann-Roch counts and ring inference."""

import random
from fractions import Fraction

import pytest

from fanobase import (
    FanobaseError,
    Inconsistent,
    NonIntegralChi,
    WeightedCI,
    WrongDimension,
    anticanonical_degree,
    hilbert_coeffs,
    infer_ring,
    rr_chi,
)
from fanobase import wps as wps_module
from fanobase.errors import ModelTooLarge, require_integers
from fanobase.wps import MODEL_LIMIT


def oracle_series(gens, rels, n_max):
    """Rational-function expansion by long division with exact Fractions."""
    num = [1] + [0] * n_max
    for e in rels:
        new = num[:]
        for k in range(e, n_max + 1):
            new[k] -= num[k - e]
        num = new
    den = [1] + [0] * n_max
    for w in gens:
        new = den[:]
        for k in range(w, n_max + 1):
            new[k] -= den[k - w]
        den = new
    out = []
    rem = [Fraction(v) for v in num]
    for k in range(n_max + 1):
        c = rem[k] / den[0]
        out.append(c)
        for j in range(k, n_max + 1):
            rem[j] -= c * den[j - k]
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def oracle_infer_ring(seq):
    """infer_ring as it was before the step rewrite: the whole candidate
    series, by plain element loops, at every degree."""

    def loop_series(gen_degrees, rel_degrees, n_max):
        coeffs = [0] * (n_max + 1)
        coeffs[0] = 1
        for w in gen_degrees:
            for k in range(w, n_max + 1):
                coeffs[k] += coeffs[k - w]
        for e in rel_degrees:
            for k in range(n_max, e - 1, -1):
                coeffs[k] -= coeffs[k - e]
        return coeffs

    if type(seq) not in (list, tuple):
        raise FanobaseError(f"infer_ring needs a list or a tuple, got {seq!r}")
    seq = list(seq)
    require_integers("infer_ring", seq)
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
        candidate = loop_series(gens, rels, n_max)
        if candidate[d] < 0:
            raise Inconsistent(
                f"degree {d}: relations drove the model dimension to {candidate[d]}"
            )
        delta = seq[d] - candidate[d]
        if len(gens) + len(rels) + abs(delta) > MODEL_LIMIT:
            raise ModelTooLarge(
                f"degree {d}: the model would grow past {MODEL_LIMIT} generators and relations"
            )
        if delta > 0:
            gens.extend([d] * delta)
        elif delta < 0:
            rels.extend([d] * (-delta))
    assert loop_series(gens, rels, n_max) == seq
    return tuple(gens), tuple(rels)


def _outcome(infer, seq):
    """The model ``infer`` returns for ``seq``, or the type and message it raises."""
    try:
        return infer(seq)
    except FanobaseError as exc:
        return type(exc), str(exc)


def test_weighted_ci_validation():
    with pytest.raises(FanobaseError):
        WeightedCI((), ())
    with pytest.raises(FanobaseError):
        WeightedCI((1, 0, 2), ())
    with pytest.raises(FanobaseError):
        WeightedCI((1, 1), (1,))
    with pytest.raises(FanobaseError):
        WeightedCI((1, 1), (2, 3))
    # weights and relation degrees are lists or tuples of integers: a dict was once
    # read by its keys, as weights (2, 1, 3), and a generator is read only once
    for weights, rels in (({2: 0, 1: 0, 3: 0}, {6: 0}), ((w for w in (1, 1, 2)), ()), ((1, True), ())):
        with pytest.raises(FanobaseError):
            WeightedCI(weights, rels)
    assert WeightedCI([1, 1, 1, 2, 3], [6]) == WeightedCI((1, 1, 1, 2, 3), (6,))
    x = WeightedCI((1, 1, 1, 1, 2, 3), (2, 6))
    assert x.dimension == 3
    assert x.amplitude() == 1


def test_hilbert_examples():
    assert hilbert_coeffs(WeightedCI((1, 1, 1, 1, 2, 3), (2, 6)), 3) == [1, 4, 10, 21]
    assert hilbert_coeffs(WeightedCI((1, 1, 1, 2, 3), (6,)), 2) == [1, 3, 7]
    assert hilbert_coeffs(WeightedCI((1,)), 3) == [1, 1, 1, 1]
    with pytest.raises(FanobaseError):
        hilbert_coeffs(WeightedCI((1,)), -1)


def test_hilbert_matches_long_division_oracle():
    rng = random.Random(99)
    for _ in range(60):
        gens = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5)))
        rels = tuple(rng.randint(2, 8) for _ in range(rng.randint(0, len(gens) - 1)))
        x = WeightedCI(gens, rels)
        assert hilbert_coeffs(x, 16) == oracle_series(gens, rels, 16)
    # both forms of the division step, on both sides of 16 * w <= n (w = 4
    # at n = 63 and 64), the element loop at w > n and n = 0, and the
    # relation pass at e = n and e > n
    for gens, rels, n in [
        ((1,), (), 0), ((2, 3), (4,), 0), ((5, 7), (), 3), ((1, 9), (9,), 9),
        ((1, 2), (13,), 12), ((1, 4), (8,), 63), ((1, 4), (8,), 64),
        ((1, 1, 1, 2, 3), (6,), 96), ((1, 1, 1, 2, 3), (6,), 95), ((1, 1, 1, 1, 2, 3), (2, 6), 300),
        ((2, 3, 5), (6, 10), 120), ((1, 7), (112,), 112), ((1, 8), (113,), 112),
    ]:
        assert hilbert_coeffs(WeightedCI(gens, rels), n) == oracle_series(gens, rels, n), (gens, rels, n)
    rng = random.Random(314)
    for _ in range(60):
        n = rng.choice((0, 1, rng.randint(2, 40), rng.randint(2, 100)))
        gens = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 5)))
        rels = tuple(rng.randint(2, n + 3) for _ in range(rng.randint(0, len(gens) - 1)))
        assert hilbert_coeffs(WeightedCI(gens, rels), n) == oracle_series(gens, rels, n), (gens, rels, n)


def test_anticanonical_degree_examples():
    assert anticanonical_degree(WeightedCI((1, 1, 1, 1, 2, 3), (2, 6))) == (Fraction(2), True)
    assert anticanonical_degree(WeightedCI((1, 1, 1, 2, 3), (6,))) == (Fraction(8), True)
    with pytest.raises(WrongDimension):
        anticanonical_degree(WeightedCI((1, 1, 1, 1, 1)))
    value, integral = anticanonical_degree(WeightedCI((1, 1, 2, 5), ()))
    assert value == Fraction(9 ** 3, 10) and not integral
    # (-K)^3 = 256^3 / 64^4 = 1: the least degree in the Gorenstein Fano range
    assert anticanonical_degree(WeightedCI((64, 64, 64, 64))) == (Fraction(1), True)
    # second route on the table models: h0(-K) = (-K)^3 / 2 + 3 on a Gorenstein Fano threefold,
    # read off the Hilbert series at the amplitude
    for x in (WeightedCI((1, 1, 1, 1, 2, 3), (2, 6)), WeightedCI((1, 1, 1, 1, 3), (6,)),
              WeightedCI((1, 1, 1, 2, 3), (6,))):
        a = x.amplitude()
        assert anticanonical_degree(x) == (2 * (hilbert_coeffs(x, a)[a] - 3), True), x


def test_rr_chi_examples():
    assert rr_chi(2, 1) == 4
    assert rr_chi(2, 2) == 10
    assert rr_chi(2, 3) == 21
    assert rr_chi(2, -1) == -1
    assert rr_chi(22, 0) == 1
    with pytest.raises(NonIntegralChi):
        rr_chi(3, 1)


def _times_binomials(poly, exponents):
    """Integer coefficients of poly(t) * prod(1 - t^e for e in exponents), trailing zeros dropped."""
    out = list(poly)
    for e in exponents:
        out += [0] * e
        for i in range(len(out) - 1, e - 1, -1):
            out[i] -= out[i - e]
    while out and out[-1] == 0:
        out.pop()
    return out


def _numerator(values):
    """A with sum p(k) t^k = A / (1 - t)^(r+1) for p of degree r, read off p(0..r) by r + 1 differences."""
    return _times_binomials(values, [1] * len(values))[:len(values)]


def test_rr_matches_hilbert_for_both_threefolds():
    quadric_sextic = hilbert_coeffs(WeightedCI((1, 1, 1, 1, 2, 3), (2, 6)), 12)
    for k in range(13):
        assert quadric_sextic[k] == rr_chi(2, k)
    # the sextic is polarized by half the anticanonical class, so the
    # anticanonical counts sit at the even indices
    sextic = hilbert_coeffs(WeightedCI((1, 1, 1, 2, 3), (6,)), 24)
    for k in range(13):
        assert sextic[2 * k] == rr_chi(8, k)
    # in every degree: series N/D, N = prod(1 - t^e) over relations, D over weights;
    # the two quadric-sextic presentations agree exactly when N1 * D2 = N2 * D1
    n1, d1, n2, d2 = (2, 6), (1, 1, 1, 1, 2, 3), (6,), (1, 1, 1, 1, 3)
    assert _times_binomials([1], n1 + d2) == _times_binomials([1], n2 + d1)
    # and the cubic rr_chi(2, k) is their series exactly when A * D2 = N2 * (1 - t)^4
    a = _numerator([rr_chi(2, k) for k in range(4)])
    assert a == [1, 0, 0, 1]  # 1 + t^3
    assert _times_binomials(a, d2) == _times_binomials([1], n2 + (1, 1, 1, 1))


def test_infer_ring_examples():
    assert infer_ring([1, 3, 7, 14, 25, 41, 63]) == ((1, 1, 1, 2, 3), (6,))
    assert infer_ring([1, 4, 10, 21, 39, 66, 104]) == ((1, 1, 1, 1, 3), (6,))
    assert infer_ring([1, 1, 1, 1]) == ((1,), ())


def test_infer_ring_rejects_bad_input():
    with pytest.raises(Inconsistent):
        infer_ring([1])
    with pytest.raises(Inconsistent):
        infer_ring([2, 3])
    with pytest.raises(Inconsistent):
        infer_ring([1, 2, -1])
    with pytest.raises(Inconsistent):
        infer_ring([1, 2, 0, 0])  # three quadric relations overshoot degree 3


def test_infer_ring_reads_only_a_list_or_a_tuple():
    # a set or a dict has no order of degrees: the set of [1, 1, 2, 2, 3, 3] was once
    # read as [1, 2, 3], giving ((1, 1), ()), and a dict was read by its keys
    for seq in ({1, 1, 2, 2, 3, 3}, dict.fromkeys([1, 1, 2, 2, 3, 3]), iter([1, 1, 2]), "1123"):
        with pytest.raises(FanobaseError):
            infer_ring(seq)
    for seq, model in (([1, 1, 2, 2, 3, 3], ((1, 2), ())), ([1, 3, 7, 14, 25, 41, 63], ((1, 1, 1, 2, 3), (6,))),
                       ([1, 1, 1, 1], ((1,), ()))):
        assert infer_ring(seq) == infer_ring(tuple(seq)) == model
    for seq in ([1], [2, 3], [1, 2, 0, 0]):
        with pytest.raises(Inconsistent):
            infer_ring(tuple(seq))


def test_infer_ring_refuses_a_model_past_the_limit():
    # the last has relations in the model when the limit is reached: 1 000 generators,
    # 40 000 degree-2 relations, then 60 000 more generators at degree 3
    for seq in ([1, 10**9], [1, 0, 10**9], [1, MODEL_LIMIT + 1], [1, 1000, 460500, 127227000]):
        with pytest.raises(ModelTooLarge):
            infer_ring(seq)
    # the limit itself is built, and so is a large model that fits under it
    assert infer_ring([1, MODEL_LIMIT]) == ((1,) * MODEL_LIMIT, ())
    n = 10**4
    assert infer_ring([1, n, n * (n + 1) // 2]) == ((1,) * n, ())


def test_infer_ring_roundtrip_on_disjoint_degrees():
    # generator degrees stay below every relation degree and at least as
    # many degree-1 generators as relations, so each model is a genuine
    # complete intersection with a non-negative series
    rng = random.Random(4242)
    for _ in range(120):
        gens = sorted([1, 1] + [rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 2))])
        rels = sorted(
            rng.choice((4, 5, 6, 7, 8, 9))
            for _ in range(rng.randint(0, min(2, len(gens) - 1)))
        )
        x = WeightedCI(tuple(gens), tuple(rels))
        n_max = max(gens + rels) + 3
        assert infer_ring(hilbert_coeffs(x, n_max)) == (tuple(gens), tuple(rels))


def test_sextic_series_is_the_riemann_roch_polynomial():
    # case ii-a: X_6 in P(1,1,1,2,3) has degree 8, and its even degrees are h0(-kK)
    coeffs = hilbert_coeffs(WeightedCI((1, 1, 1, 2, 3), (6,)), 60)
    assert [coeffs[2 * k] for k in range(31)] == [rr_chi(8, k) for k in range(31)]
    # in every degree k: 1 + k(8 + 3k + k^2)/6 is the series N/D exactly when A * D = N * (1 - t)^4
    a = _numerator([1 + k * (8 + 3 * k + k * k) // 6 for k in range(4)])
    assert a == [1, -1, 1, 0]  # 1 - t + t^2
    assert _times_binomials(a, (1, 1, 1, 2, 3)) == _times_binomials([1], (6, 1, 1, 1, 1))


def _random_series(rng, n_max):
    gens = tuple(rng.choice((1, 1, 1, 2, 2, 3, 4, 5)) for _ in range(rng.randint(1, 6)))
    rels = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, len(gens) - 1)))
    return hilbert_coeffs(WeightedCI(gens, rels), n_max)


def test_infer_ring_matches_the_full_length_oracle():
    rng = random.Random(2718)
    inputs = []
    for _ in range(80):
        seq = _random_series(rng, rng.randint(1, 40))
        inputs.append(seq)
        # one entry nudged by 1..3 either way: mostly another model or Inconsistent
        nudged = list(seq)
        nudged[rng.randrange(len(seq))] += rng.choice((-3, -2, -1, 1, 2, 3))
        inputs.append(nudged)
    inputs.append(_random_series(rng, 300))
    # models past the limit, in degree 1 and later
    inputs += [[1, MODEL_LIMIT + rng.randint(1, 10**6)] for _ in range(3)]
    inputs += [[1, 1, MODEL_LIMIT + 1], [1, 0, 10**9], [1, 2, 3, 4 + MODEL_LIMIT]]
    inputs += [[1, 2, 0, 0], [1], [2, 1], [1, -1], [1, True], None]
    too_large = 0
    for seq in inputs:
        got = _outcome(infer_ring, seq)
        assert got == _outcome(oracle_infer_ring, seq), seq
        if got[0] is ModelTooLarge:
            too_large += 1
        elif isinstance(got[0], tuple):  # a model, not an exception
            gens, rels = got
            assert oracle_series(gens, rels, len(seq) - 1) == seq
            assert not set(gens) & set(rels)
    assert too_large >= 6


def test_infer_ring_expands_within_the_stated_bound(probe):
    # degree d expands the model found so far to degree d, and the closing
    # check the whole model to n: on n + 1 terms with a returned model of M
    # degrees, (n_max + 1) * (generators + relations) summed over the
    # expansions is at most M * (n + 1) * (n + 4) / 2
    rng = random.Random(20261020)
    table = [WeightedCI((1, 1, 1, 1, 2, 3), (2, 6)), WeightedCI((1, 1, 1, 1, 3), (6,)),
             WeightedCI((1, 1, 1, 2, 3), (6,))]
    inputs = [hilbert_coeffs(x, 299) for x in table]
    inputs += [_random_series(rng, rng.randint(1, 300)) for _ in range(60)]
    log = probe(wps_module, "_series")
    models = 0
    for seq in inputs:
        log.clear()
        got = _outcome(infer_ring, seq)
        if isinstance(got[0], tuple):  # a model, not an exception
            n, m = len(seq) - 1, len(got[0]) + len(got[1])
            work = sum((n_max + 1) * (len(gens) + len(rels)) for _, (gens, rels, n_max), _ in log)
            assert 0 < work <= m * (n + 1) * (n + 4) // 2, (seq[:8], got)
            models += 1
    assert models >= 40
