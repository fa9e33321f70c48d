import random
import time
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equigraph import exact as exact_module
from equigraph.exact import ExactValue, Surd, exact_sum, format_surd, squarefree_decompose
from equigraph.fields import is_prime, prime_power_decompose

from oracles import factorize, parse_surd

RADICANDS = [1, 2, 3, 5, 6, 7, 13, 17]

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=12)
surds_st = st.builds(Surd, fractions_st, fractions_st, st.sampled_from(RADICANDS))


def test_normalize_extracts_square_factors():
    s = Surd(0, 1, 12)
    assert (s.a, s.b, s.d) == (0, 2, 3)


def test_normalize_collapses_zero_coefficient():
    s = Surd(3, 0, 7)
    assert (s.a, s.b, s.d) == (3, 0, 1)


def test_normalize_golden_ratio_style_value():
    s = Surd(Fraction(-1, 2), Fraction(1, 2), 5)
    assert (s.a, s.b, s.d) == (Fraction(-1, 2), Fraction(1, 2), 5)
    assert 0.618 < float(s) < 0.619


def test_normalize_folds_d_one_and_zero():
    assert Surd(2, 3, 1) == Surd(5)
    assert Surd(2, 3, 0) == Surd(2)
    assert Surd(0, 1, 4) == Surd(2)


@given(surds_st)
def test_normalize_idempotent(s):
    again = Surd(s.a, s.b, s.d)
    assert (again.a, again.b, again.d) == (s.a, s.b, s.d)


def test_compare_examples():
    assert Surd(0, 1, 5).compare(Surd(2)) > 0
    assert Surd(Fraction(-1, 2), Fraction(1, 2), 13).compare(Surd(0)) > 0
    assert Surd(Fraction(-1, 2), Fraction(-1, 2), 5).compare(Surd(-1)) < 0


def test_compare_mixed_radicands():
    assert Surd(0, 1, 2) < Surd(0, 1, 3)
    assert Surd(1, 1, 2) > Surd(0, 1, 5)      # 2.414 > 2.236
    assert Surd(0, 5, 2) > Surd(0, 4, 3)      # 7.07 > 6.93
    assert Surd(0, 4, 3) < Surd(0, 5, 2)
    assert Surd(-1, 3, 2) < Surd(0, 2, 3)     # 3.243 < 3.464
    assert Surd(0, 1, 6) == Surd(0, 1, 6)


@given(surds_st, surds_st, surds_st)
@settings(max_examples=300)
def test_compare_total_order(x, y, z):
    cxy = x.compare(y)
    assert y.compare(x) == -cxy
    if cxy == 0:
        assert x.compare(z) == y.compare(z)
    if x.compare(y) <= 0 and y.compare(z) <= 0:
        assert x.compare(z) <= 0


def test_compare_agrees_with_longdouble():
    # exact order must match 80-bit float order whenever floats clearly separate
    rng = random.Random(20240412)
    for _ in range(10_000):
        d1, d2 = rng.choice(RADICANDS), rng.choice(RADICANDS)
        x = Surd(Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
                 Fraction(rng.randint(-60, 60), rng.randint(1, 9)), d1)
        y = Surd(Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
                 Fraction(rng.randint(-60, 60), rng.randint(1, 9)), d2)
        fx = np.longdouble(x.a.numerator) / np.longdouble(x.a.denominator) + \
            np.longdouble(x.b.numerator) / np.longdouble(x.b.denominator) * np.sqrt(np.longdouble(d1))
        fy = np.longdouble(y.a.numerator) / np.longdouble(y.a.denominator) + \
            np.longdouble(y.b.numerator) / np.longdouble(y.b.denominator) * np.sqrt(np.longdouble(d2))
        if abs(fx - fy) > 1e-12:
            assert x.compare(y) == (1 if fx > fy else -1)


def test_abs_examples():
    assert abs(Surd(-3)) == Surd(3)
    assert abs(Surd(Fraction(-1, 2), Fraction(-1, 2), 5)) == Surd(Fraction(1, 2), Fraction(1, 2), 5)
    assert abs(Surd(0)) == Surd(0)


@given(surds_st)
def test_abs_properties(s):
    assert abs(s) >= Surd(0)
    assert abs(-s) == abs(s)


def test_arithmetic_in_one_radicand():
    phi = Surd(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1          # golden ratio identity


squarefree_st = st.integers(2, 10 ** 6).filter(
    lambda d: exact_module.squarefree_decompose(d) == (1, d))


@settings(max_examples=200, deadline=None)
@given(fractions_st, fractions_st, fractions_st, fractions_st, squarefree_st)
def test_one_radicand_arithmetic_equals_the_canonicalising_constructor(a1, b1, a2, b2, d):
    x, y = Surd(a1, b1, d), Surd(a2, b2, d)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_module, "squarefree_decompose", lambda n: calls.append(n))
        got = [-x, x + y, x * y, abs(x), x + 3, x * Fraction(1, 2)]
    assert calls == []
    want = [Surd(-a1, -b1, d), Surd(a1 + a2, b1 + b2, d),
            Surd(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, d),
            x if x.sign() >= 0 else Surd(-a1, -b1, d), Surd(a1 + 3, b1, d),
            Surd(a1 / 2, b1 / 2, d)]
    assert [(v.a, v.b, v.d) for v in got] == [(v.a, v.b, v.d) for v in want]
    assert all(type(v.a) is Fraction and type(v.b) is Fraction for v in got)


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError):
        Surd(0, 1, 2) + Surd(0, 1, 3)


def test_exact_sum_conference_terms():
    d = 1
    total = exact_sum([(Surd(2 * d), 1), (Surd(0, d, 4 * d + 1), 1), (Surd(d), 1)])
    assert total == ExactValue([(1, 3), (5, 1)])
    # matches the closed-form conference energy 2d(1 + sqrt(4d+1)) modulo bookkeeping:
    closed = ExactValue([(1, 2 * d), (4 * d + 1, 2 * d)])
    assert closed == ExactValue([(1, 2), (5, 2)])


def test_exact_sum_empty_and_cancellation():
    assert exact_sum([]) == ExactValue()
    assert exact_sum([(Surd(1), 3), (Surd(-1), 3)]) == ExactValue()


def test_exact_value_float_of_zero():
    # a zero value has no terms; float() must still return a float
    assert float(ExactValue.from_rational(0)) == 0.0
    assert float(exact_sum([(Surd(2), 1), (Surd(-2), 1)])) == 0.0


def test_exact_value_equality_is_coefficientwise():
    assert ExactValue([(8, 1)]) == ExactValue([(2, 2)])
    assert ExactValue([(2, 1), (3, 1)]) != ExactValue([(5, 1)])


def test_round_trip_rendering():
    cases = [
        Surd(3),
        Surd(Fraction(-1, 2)),
        Surd(0, 2, 3),
        Surd(0, -1, 2),
        Surd(Fraction(-1, 2), Fraction(1, 2), 5),
        Surd(2, -3, 7),
        Surd(0),
    ]
    for s in cases:
        assert parse_surd(str(s)) == s


@given(surds_st)
def test_round_trip_rendering_random(s):
    assert parse_surd(str(s)) == s


def test_rendering_matches_convention():
    assert str(Surd(Fraction(-1, 2), Fraction(1, 2), 5)) == "-1/2 + 1/2*sqrt(5)"
    assert str(Surd(2, -3, 7)) == "2 - 3*sqrt(7)"
    assert str(Surd(0, 1, 3)) == "sqrt(3)"
    assert str(Surd(5)) == "5"


# -- ExactValue rendering against the former one, which built a Surd per term ------

def _former_exact_value_str(value: ExactValue) -> str:
    if not value.terms:
        return "0"
    parts = []
    for d, c in value.terms:
        piece = format_surd(Surd(c) if d == 1 else Surd(0, c, d))
        if parts and not piece.startswith("-"):
            parts.append("+ " + piece)
        elif parts:
            parts.append("- " + piece.lstrip("-"))
        else:
            parts.append(piece)
    return " ".join(parts)


exact_terms_st = st.lists(st.tuples(st.integers(0, 10 ** 4), st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(max_denominator=10 ** 6),
    st.sampled_from([Fraction(1), Fraction(-1)]))), max_size=6)


@settings(max_examples=200, deadline=None)
@given(exact_terms_st)
def test_exact_value_str_matches_the_former_rendering(terms):
    value = ExactValue(terms)
    assert str(value) == _former_exact_value_str(value)


# -- exact_sum's per-radicand accumulation against the generic constructor ---------

def _pell_cancellations():
    """p - q*sqrt(2) with p*p - 2*q*q = +-1: tiny values, large float error."""
    p, q = 1, 1
    out = []
    for _ in range(40):
        out.append(Surd(p, -q, 2))
        p, q = p + 2 * q, p + q
    return out


wide_surds_st = st.one_of(
    surds_st,
    st.builds(Surd, st.fractions(max_denominator=10 ** 6), st.fractions(max_denominator=10 ** 6),
              st.integers(0, 10 ** 6)),
    st.integers(-2 ** 60, 2 ** 60).map(Surd),
    st.sampled_from(_pell_cancellations()),
)


@settings(max_examples=300, deadline=None)
@given(wide_surds_st)
@example(Surd(0))
@example(Surd(-7))
@example(Surd(Fraction(-1, 2)))
def test_surd_str_matches_the_generic_renderer(s):
    # an integer takes a shortcut past _format_terms
    assert str(s) == exact_module._format_terms(((1, s.a), (s.d, s.b)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(wide_surds_st, st.integers(1, 50)), max_size=20))
def test_exact_sum_matches_generic_construction(pairs):
    generic = ExactValue([t for s, m in pairs for t in ((1, s.a * m), (s.d, s.b * m))])
    got = exact_sum(pairs)
    assert got == generic
    assert got.terms == generic.terms
    assert all(type(c) is Fraction for _, c in got.terms)


# -- cross-radicand comparison: exact, with no Surd built and no radicand factored --

def _reference_bounds(s, k):
    """Integers lo <= s * 2**k <= hi, from integer square roots alone."""
    a = s.a * 2 ** k
    lo, hi = a.numerator // a.denominator, -(-a.numerator // a.denominator)
    if s.b:
        n, m = s.b.numerator, s.b.denominator
        t = isqrt(n * n * s.d * 4 ** k)  # t <= |b|*sqrt(d)*2**k*m < t + 1
        b_lo, b_hi = t // m, -(-(t + 1) // m)
        if n < 0:
            b_lo, b_hi = -b_hi, -b_lo
        lo, hi = lo + b_lo, hi + b_hi
    return lo, hi


def _reference_compare(x, y):
    """Order by refining integer intervals until they separate; canonical
    surds are equal exactly when their fields are."""
    if (x.a, x.b, x.d) == (y.a, y.b, y.d):
        return 0
    k = 0
    while True:
        x_lo, x_hi = _reference_bounds(x, k)
        y_lo, y_hi = _reference_bounds(y, k)
        if x_lo > y_hi:
            return 1
        if x_hi < y_lo:
            return -1
        k += 16


@settings(max_examples=300, deadline=None)
@given(st.tuples(wide_surds_st, wide_surds_st).filter(lambda p: p[0].d != p[1].d))
def test_cross_radicand_compare_builds_no_surd_and_factors_nothing(pair):
    x, y = pair
    calls = []
    init, decompose = Surd.__init__, exact_module.squarefree_decompose

    def counted_init(self, *args):
        calls.append("Surd.__init__")
        init(self, *args)

    def counted_decompose(d):
        calls.append("squarefree_decompose")
        return decompose(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Surd, "__init__", counted_init)
        mp.setattr(exact_module, "squarefree_decompose", counted_decompose)
        got = x.compare(y), y.compare(x)
    assert calls == []
    assert got == (_reference_compare(x, y), _reference_compare(y, x))


# -- hashing agrees with equality --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 12, 10 ** 12),
                 st.fractions(max_denominator=10 ** 6)))
def test_a_rational_value_hashes_as_the_number_it_equals(q):
    values = [Surd(q), Surd(0, q, 4) * Fraction(1, 2), ExactValue.from_rational(q),
              ExactValue([(9, Fraction(q, 3))])]
    for value in values:
        assert value == q and hash(value) == hash(q)
        assert len({value, q}) == 1 and len({q, value}) == 1


# -- the direct path for a plain int ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.integers(2 ** 63 - 2, 2 ** 64)),
       st.sampled_from([(), (0,), (0, 1), (Fraction(0), 1)]))
@example(0, ())
@example(-1, ())
@example(2 ** 63, ())
@example(-(2 ** 63) - 1, (0, 1))
def test_an_int_surd_equals_the_general_construction(x, rest):
    direct = Surd(x, *rest)
    general = Surd(Fraction(x), Fraction(0), 1)  # a Fraction takes the general path
    assert (direct.a, direct.b, direct.d) == (general.a, general.b, general.d) == (x, 0, 1)
    assert type(direct.a) is type(direct.b) is Fraction and type(direct.d) is int
    assert hash(direct) == hash(general) == hash(x)
    assert str(direct) == str(general) == str(x) and direct == general


def test_an_int_with_a_radicand_takes_the_general_path():
    assert (Surd(3, 0, 5).d, Surd(3, 2, 4), Surd(3, 1, 0)) == (1, Surd(7), Surd(3))
    with pytest.raises(ValueError, match="radicand must be nonnegative"):
        Surd(3, 0, -1)


# -- factoring against a sieve ------------------------------------------------------


def _reference_factoring(n: int):
    factors = factorize(n)
    square = prod(p ** (e // 2) for p, e in factors.items())
    free = prod(p for p, e in factors.items() if e % 2)
    power = next(iter(factors.items())) if len(factors) == 1 else None
    return (square, free), power, power is not None and power[1] == 1


def test_factoring_matches_the_sieve_reference():
    rng = random.Random(20)
    ns = [*range(1, 30_000), *(rng.randrange(30_000, 10 ** 10) for _ in range(3_000))]
    wrong = [n for n in ns if (squarefree_decompose(n), prime_power_decompose(n),
                               is_prime(n)) != _reference_factoring(n)]
    assert not wrong


@pytest.mark.parametrize("n", [
    2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37,
    5 * 13 * 17 * 29 * 37 * 41 * 53 * 61 * 73,
])
def test_a_smooth_squarefree_radicand_factors_at_once(n):
    # each prime found is divided out, so the search stops at the square
    # root of what is left, not of n
    start = time.perf_counter()
    assert squarefree_decompose(n) == (1, n)
    assert time.perf_counter() - start < 0.1
