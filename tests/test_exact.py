import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equigraph.exact import ExactValue, Surd, exact_sum, format_surd

from oracles import parse_surd

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
@given(st.lists(st.tuples(wide_surds_st, st.integers(1, 50)), max_size=20))
def test_exact_sum_matches_generic_construction(pairs):
    generic = ExactValue([t for s, m in pairs for t in ((1, s.a * m), (s.d, s.b * m))])
    got = exact_sum(pairs)
    assert got == generic
    assert got.terms == generic.terms
    assert all(type(c) is Fraction for _, c in got.terms)


# -- the float error bound behind the float-sorted Spectrum -------------------------

@settings(max_examples=500, deadline=None)
@given(wide_surds_st)
def test_float_error_bounds_the_conversion(s):
    err = s.float_error()
    gap = Surd(Fraction(float(s))) + -s
    assert abs(gap).compare(Surd(Fraction(err))) <= 0


def test_float_error_is_zero_exactly_for_exactly_representable_integers():
    assert Surd(2 ** 53).float_error() == 0.0
    assert Surd(-(2 ** 53)).float_error() == 0.0
    assert Surd(7).float_error() == 0.0
    assert Surd(2 ** 53 + 1).float_error() > 0.5
    assert Surd(Fraction(1, 2)).float_error() > 0.0
    assert Surd(0, 1, 2).float_error() > 0.0
