import copy
import pickle
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equigraph import srg as srg_module

from equigraph.exact import ExactValue, Surd, exact_sum
from equigraph.graphs import complement, numeric_spectrum, paley, shrikhande, gp_graph
from equigraph.fields import is_prime_power
from equigraph.rings import RingProfile, unitary_spectrum
from equigraph.data import exact_spectrum_of_family
from equigraph.spectra import check_equienergetic, spectra_match
from equigraph.srg import (
    CaseB,
    CaseC,
    Conference,
    InfeasibleParams,
    NotEquien,
    SrgEigenData,
    SrgParams,
    classify,
    complement_params,
    eigen_data,
    energy_closed,
    enumerate_equien,
    equien_condition,
    family_params,
    gp_spectrum,
    is_conference,
    is_primitive,
    latin_square_params,
    negative_latin_square_params,
    oa_params,
    smith_params,
    spectrum_of,
    steiner_params,
    theorem_tuples,
)
from equigraph.verify import _oracle_direct_energy, verify_srg_enumeration

from oracles import (FormerCaseB, FormerCaseC, FormerSrgParams, per_n_theorem_tuples,
                     srg_counts)


# -- eigen data ----------------------------------------------------------------

def test_eigen_data_shrikhande():
    data = eigen_data(SrgParams(16, 6, 2, 2))
    assert data.r == Surd(2) and data.s == Surd(-2)
    assert (data.m_r, data.m_s) == (6, 9)
    assert not data.conference


def test_eigen_data_pentagon():
    data = eigen_data(SrgParams(5, 2, 0, 1))
    assert data.r == Surd(Fraction(-1, 2), Fraction(1, 2), 5)
    assert data.s == Surd(Fraction(-1, 2), Fraction(-1, 2), 5)
    assert data.m_r == data.m_s == 2
    assert data.conference


def test_eigen_data_petersen():
    data = eigen_data(SrgParams(10, 3, 0, 1))
    assert data.r == Surd(1) and data.s == Surd(-2)
    assert (data.m_r, data.m_s) == (5, 4)


def test_eigen_data_rejects_bad_identity():
    with pytest.raises(InfeasibleParams):
        eigen_data(SrgParams(10, 3, 1, 1))


@lru_cache(maxsize=None)
def _feasible_tuples(n_max: int = 160) -> tuple[SrgParams, ...]:
    """Every tuple with n <= n_max that eigen_data accepts, d = 0 and k = d included."""
    out = []
    for n in range(3, n_max + 1):
        for k in range(1, n - 1):
            step = k // gcd(k, n - 1)   # e is integral exactly when step divides d
            for d in range(0, k + 1, step):
                try:
                    p = SrgParams(n, k, k - 1 - d * (n - k - 1) // k, d)
                    eigen_data(p)
                except InfeasibleParams:
                    continue
                out.append(p)
    return tuple(out)


feasible_st = st.deferred(lambda: st.sampled_from(_feasible_tuples()))


def _division_form(p: SrgParams) -> tuple[Surd, Surd]:
    """The former r, s: (sqrt(alpha) + (e - d)) / 2 and ((e - d) - sqrt(alpha)) / 2."""
    ed = p.e - p.d
    root = Surd(0, 1, ed * ed + 4 * (p.k - p.d))
    half = Fraction(1, 2)
    return (root + ed) * half, (Surd(ed) + -root) * half


@settings(max_examples=300, deadline=None)
@given(feasible_st)
@example(SrgParams(6, 2, 1, 0))    # two triangles: d = 0
@example(SrgParams(6, 4, 2, 4))    # K_{3x2}: k = d
@example(SrgParams(5, 2, 0, 1))    # conference, irrational
@example(SrgParams(9, 4, 1, 2))    # conference with a square discriminant
def test_eigen_data_matches_division_form(p):
    data = eigen_data(p)
    r, s = _division_form(p)
    for got, want in ((data.r, r), (data.s, s)):
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)


def _fraction_first_eigen_data(p: SrgParams) -> SrgEigenData:
    """The former eigen_data: surds first, multiplicities as Fractions."""
    if not p.identity_holds():
        raise InfeasibleParams(f"counting identity fails for {p}")
    ed = p.e - p.d
    alpha = ed * ed + 4 * (p.k - p.d)
    if alpha <= 0:
        raise InfeasibleParams(f"nonpositive discriminant for {p}")
    r = Surd(Fraction(ed, 2), Fraction(1, 2), alpha)
    s = Surd(Fraction(ed, 2), Fraction(-1, 2), alpha)
    a = isqrt(alpha)
    is_square = a * a == alpha
    t = 2 * p.k + (p.n - 1) * ed
    if is_square:
        m_r = Fraction(p.n - 1, 2) - Fraction(t, 2 * a)
        m_s = Fraction(p.n - 1, 2) + Fraction(t, 2 * a)
        if m_r.denominator != 1 or m_s.denominator != 1 or m_r < 0 or m_s < 0:
            raise InfeasibleParams(f"non-integral or negative multiplicities for {p}")
    else:
        if t != 0:
            raise InfeasibleParams(
                f"irrational eigenvalues with unbalanced multiplicities for {p}"
            )
        m_r = m_s = Fraction(p.n - 1, 2)
        if m_r.denominator != 1:
            raise InfeasibleParams(f"odd vertex count required for conference {p}")
    return SrgEigenData(alpha=alpha, r=r, s=s, m_r=m_r, m_s=m_s, conference=not is_square)


@st.composite
def srg_params_st(draw) -> SrgParams:
    """Any (n, k, e, d) that SrgParams accepts, feasible or not; half the
    draws solve the counting identity for e when it has an integer root."""
    n = draw(st.integers(3, 400))
    k = draw(st.integers(1, n - 2))
    d = draw(st.integers(0, k))
    num = d * (n - k - 1)
    if num % k == 0 and num // k <= k - 1 and draw(st.booleans()):
        e = k - 1 - num // k
    else:
        e = draw(st.integers(0, k - 1))
    return SrgParams(n, k, e, d)


def _outcome(derive, p):
    try:
        return derive(p)
    except InfeasibleParams as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(srg_params_st())
@example(SrgParams(6, 2, 1, 0))    # two triangles: d = 0
@example(SrgParams(6, 4, 2, 4))    # K_{3x2}: k = d
@example(SrgParams(5, 2, 0, 1))    # conference, irrational
@example(SrgParams(9, 4, 1, 2))    # conference with a square discriminant
@example(SrgParams(16, 5, 0, 2))   # Clebsch
@example(SrgParams(10, 3, 1, 1))   # counting identity fails
@example(SrgParams(4, 2, 1, 0))    # non-integral multiplicities
@example(SrgParams(7, 3, 1, 1))    # irrational eigenvalues, unbalanced multiplicities
def test_eigen_data_matches_fraction_first_form(p):
    got, want = _outcome(eigen_data, p), _outcome(_fraction_first_eigen_data, p)
    assert got == want
    if isinstance(got, SrgEigenData):
        for x, y in ((got.r, want.r), (got.s, want.s)):
            assert (x.a, x.b, x.d) == (y.a, y.b, y.d)


@settings(max_examples=400, deadline=None)
@given(srg_params_st())
@example(SrgParams(4, 2, 1, 2))    # d = k and e = k - 1: alpha = 1
@example(SrgParams(3, 1, 0, 1))
def test_every_accepted_tuple_has_a_positive_discriminant(p):
    # SrgParams forces d <= k and e <= k - 1, so alpha = 0 would need e = d = k
    assert (p.e - p.d) ** 2 + 4 * (p.k - p.d) > 0


@st.composite
def _balanced_st(draw) -> tuple[int, int, int, int]:
    """Every (n, k, e, d) with k >= 1 and t = 2k + (n - 1)(e - d) = 0: then
    j = d - e >= 1 divides 2k and n = 2k / j + 1."""
    k = draw(st.integers(1, 500))
    j = draw(st.sampled_from([j for j in range(1, 2 * k + 1) if 2 * k % j == 0]))
    e = draw(st.integers(0, k))
    return 2 * k // j + 1, k, e, e + j


@settings(max_examples=400, deadline=None)
@given(_balanced_st())
@example((5, 2, 0, 1))       # the pentagon
@example((7, 3, 0, 1))       # balanced, but the counting identity fails
@example((4, 3, 0, 2))       # j = 2: k = n - 1 is refused
def test_balanced_multiplicities_force_an_odd_vertex_count(nked):
    # t = 0 with 0 < k < n - 1 forces d - e = 1 and n - 1 = 2k, so the
    # conference case never meets an even n - 1
    try:
        p = SrgParams(*nked)
    except InfeasibleParams:
        return
    assert (p.d - p.e, p.n - 1) == (1, 2 * p.k)
    data = _outcome(eigen_data, p)
    if isinstance(data, SrgEigenData) and data.conference:
        assert data.m_r == data.m_s == p.k


def _surd_condition(p: SrgParams) -> bool:
    """The former equien_condition: both routes by Surd multiplication."""
    root = Surd(0, 1, _fraction_first_eigen_data(p).alpha)
    ed = p.e - p.d
    via_condition = (root + -ed) * (p.n - 1) == (root + 1) * (2 * p.k)
    t = 2 * p.k + (p.n - 1) * ed
    via_delta = root * (2 * p.k + 1 - p.n) == -t
    assert via_condition == via_delta
    return via_condition


@settings(max_examples=500, deadline=None)
@given(feasible_st)
@example(SrgParams(16, 5, 0, 2))   # Clebsch: x = 5, t = -20 square to equal sides
@example(SrgParams(16, 10, 6, 6))  # its complement: x = -6, t = 24
@example(SrgParams(6, 4, 2, 4))    # k = d
@example(SrgParams(5, 2, 0, 1))    # conference, irrational: x = t = 0
@example(SrgParams(9, 4, 1, 2))    # conference with a square discriminant
@example(SrgParams(16, 6, 2, 2))   # OA(4, 2)
def test_equien_condition_matches_surd_form(p):
    """Both integer routes against Surd multiplication; a sign-blind
    squaring route would pass the Clebsch examples and trip the
    route-disagreement guard."""
    want = _surd_condition(p)
    assert equien_condition(p) == want
    assert equien_condition(p, eigen_data(p)) == want


@settings(max_examples=300, deadline=None)
@given(feasible_st)
@example(SrgParams(6, 2, 1, 0))
@example(SrgParams(6, 4, 2, 4))
@example(SrgParams(5, 2, 0, 1))
def test_energy_closed_matches_three_term_sum(p):
    data = eigen_data(p)
    former = ExactValue.from_rational(p.k) \
        + exact_sum([(data.r, data.m_r)]) + exact_sum([(abs(data.s), data.m_s)])
    assert energy_closed(p) == former


def test_trace_identities_all_feasible_small():
    checked = 0
    for n in range(5, 60):
        for k in range(1, n - 1):
            for d in range(1, k + 1):
                num = d * (n - k - 1)
                if num % k:
                    continue
                e = k - 1 - num // k
                if e < 0:
                    continue
                try:
                    p = SrgParams(n, k, e, d)
                    data = eigen_data(p)
                except InfeasibleParams:
                    continue
                zero = ExactValue.from_rational(p.k) \
                    + exact_sum([(data.r, data.m_r)]) + exact_sum([(data.s, data.m_s)])
                square = ExactValue.from_rational(p.k * p.k) \
                    + exact_sum([(data.r * data.r, data.m_r)]) \
                    + exact_sum([(data.s * data.s, data.m_s)])
                assert zero == ExactValue()
                assert square == ExactValue.from_rational(p.n * p.k)
                checked += 1
    assert checked > 100


# -- complement / detection -----------------------------------------------------

def test_complement_params_shrikhande():
    assert complement_params(SrgParams(16, 6, 2, 2)) == SrgParams(16, 9, 4, 6)
    assert srg_counts(complement(shrikhande())) == (16, 9, 4, 6)


def test_conference_self_complementary_params():
    p = SrgParams(13, 6, 2, 3)
    assert complement_params(p) == p


def test_complement_params_involution():
    for p in (SrgParams(16, 6, 2, 2), SrgParams(10, 3, 0, 1), SrgParams(25, 12, 5, 6)):
        assert complement_params(complement_params(p)) == p


def test_primitivity():
    assert is_primitive(SrgParams(16, 6, 2, 2))
    assert is_primitive(SrgParams(5, 2, 0, 1))
    assert not is_primitive(SrgParams(4, 2, 0, 2))      # K_{2x2}
    assert not is_primitive(SrgParams(6, 4, 2, 4))      # K_{3x2}


def test_oa_params():
    assert oa_params(SrgParams(16, 6, 2, 2)) == (4, 2)
    assert oa_params(SrgParams(4, 2, 0, 2)) == (2, 2)
    assert oa_params(SrgParams(10, 3, 0, 1)) is None
    assert oa_params(SrgParams(16, 9, 4, 6)) == (4, 3)


# -- the equienergy condition ------------------------------------------------------

def test_equien_condition_examples():
    assert equien_condition(SrgParams(16, 6, 2, 2))
    assert not equien_condition(SrgParams(10, 3, 0, 1))
    t = 2
    assert equien_condition(SrgParams(4 * t * t, 2 * t * t - t, t * t - t, t * t - t))


def _quotient(x: Surd, y: Surd) -> Surd:
    """x / y, as x times the conjugate of y over the norm of y."""
    norm = y.a * y.a - y.b * y.b * y.d
    return x * Surd(y.a / norm, -y.b / norm, y.d)


def _division_condition(p: SrgParams) -> bool:
    """The former equien_condition: both routes with a surd division."""
    data = eigen_data(p)
    root = Surd(0, 1, data.alpha)
    via_condition = _quotient((root + 1) * (2 * p.k), root + (p.d - p.e)) + 1 == Surd(p.n)
    t = 2 * p.k + (p.n - 1) * (p.e - p.d)
    via_delta = _quotient(Surd(-t), root) == Surd(2 * p.k + 1 - p.n)
    assert via_condition == via_delta
    return via_condition


@settings(max_examples=300, deadline=None)
@given(feasible_st)
@example(SrgParams(6, 4, 2, 4))    # k = d: sqrt(alpha) = |e - d|, e - d = -2
@example(SrgParams(5, 2, 0, 1))    # conference, irrational
@example(SrgParams(9, 4, 1, 2))    # conference with a square discriminant
@example(SrgParams(16, 6, 2, 2))   # OA(4, 2)
@example(SrgParams(10, 3, 0, 1))   # Petersen: fails
def test_equien_condition_matches_division_form(p):
    assert equien_condition(p) == _division_condition(p)


def test_equien_condition_divisor_positive_on_all_feasible_small():
    for p in _feasible_tuples():
        root = Surd(0, 1, eigen_data(p).alpha)
        assert root + (p.d - p.e) > 0, p


def test_classification_examples():
    assert classify(SrgParams(16, 6, 2, 2)) == CaseB(h=0, l=2)
    assert classify(SrgParams(13, 6, 2, 3)) == Conference(d=3)
    assert classify(SrgParams(25, 12, 5, 6)) == Conference(d=6)
    assert isinstance(classify(SrgParams(10, 3, 0, 1)), NotEquien)


def test_conference_with_square_discriminant_stays_conference():
    # P(25) parameters: alpha = 25 is a perfect square yet e - d = -1
    p = SrgParams(25, 12, 5, 6)
    data = eigen_data(p)
    assert data.alpha == 25 and not data.conference
    assert classify(p) == Conference(d=6)


def test_family_params_round_trip():
    for h in range(-10, 11):
        for l in range(1, 31):
            for maker in (CaseB, CaseC):
                try:
                    cls = maker(h=h, l=l)
                    p = family_params(cls)
                except InfeasibleParams:
                    continue
                if not is_primitive(p):
                    continue
                assert p.identity_holds()
                assert equien_condition(p)
                assert classify(p) == cls


def test_family_params_known_tuples():
    assert family_params(CaseB(h=0, l=2)) == SrgParams(16, 6, 2, 2)
    assert family_params(Conference(d=1)) == SrgParams(5, 2, 0, 1)
    # d = 6 family with h = l - 2 gives k = 6l on (2l+1)^2 vertices
    p = family_params(CaseC(h=1, l=3))
    assert p == SrgParams(49, 18, 7, 6)
    assert oa_params(p) == (7, 3)


def test_energy_closed():
    assert energy_closed(SrgParams(16, 6, 2, 2)) == ExactValue.from_rational(36)
    assert energy_closed(SrgParams(5, 2, 0, 1)) == ExactValue([(1, 2), (5, 2)])
    assert energy_closed(SrgParams(9, 4, 1, 2)) == ExactValue.from_rational(16)


def test_energy_closed_matches_numeric_for_paley9():
    from equigraph.spectra import energy
    exact = energy_closed(SrgParams(9, 4, 1, 2))
    numeric = energy(numeric_spectrum(paley(9)))
    assert abs(float(exact) - numeric.value) <= numeric.radius + 1e-9


# -- families ------------------------------------------------------------------------

def test_smith_params_guard_and_scan():
    assert smith_params(1, -2) is None or isinstance(smith_params(1, -2), SrgParams)
    count = 0
    for r in range(1, 21):
        for s in range(-20, -1):
            p = smith_params(r, s)
            if p is None:
                continue
            count += 1
            assert oa_params(p) is None
            if is_primitive(p):
                assert not equien_condition(p)
    assert count > 0


def test_negative_latin_square_params():
    assert negative_latin_square_params(4, 1) == SrgParams(16, 5, 0, 2)
    with pytest.raises(InfeasibleParams):
        negative_latin_square_params(20, 1)  # e = 1 + 3 - 20 < 0
    # Off the n = 2m + 1 diagonal these tuples never carry orthogonal-array
    # parameters.  On the diagonal they coincide with the square-order
    # conference tuples, which ARE orthogonal-array tuples with m' = m + 1
    # (e.g. NL(3,1) = srg(9,4,1,2) = OA(3,2)), so the rejection argument
    # only ever applies off the diagonal.
    for n in range(1, 31):
        for m in range(1, 31):
            try:
                p = negative_latin_square_params(n, m)
            except InfeasibleParams:
                continue
            if n == 2 * m + 1:
                assert oa_params(p) == (n, m + 1)
                assert is_conference(p)
            else:
                assert oa_params(p) is None
                if is_primitive(p):
                    assert not equien_condition(p)


def test_two_fields_srg():
    # the unitary Cayley graph of F_q x F_q is the Latin square graph L_{q-1}(q)
    for q in range(3, 60):
        if is_prime_power(q):
            p = latin_square_params(q - 1, q)
            assert unitary_spectrum(RingProfile.of((q, 1), (q, 1))) == spectrum_of(p), q
            assert oa_params(p) == (q, q - 1)


def test_latin_square_and_steiner_params():
    assert latin_square_params(2, 4) == SrgParams(16, 6, 2, 2)
    assert steiner_params(2, 3) == SrgParams(10, 6, 3, 4)  # T(5)


# -- enumeration ----------------------------------------------------------------------

def brute_force_equien(n_max):
    """Independent oracle: direct exact energy comparison per feasible tuple."""
    hits = []
    for n in range(5, n_max + 1):
        for k in range(1, n - 1):
            for d in range(1, k):
                num = d * (n - k - 1)
                if num % k:
                    continue
                e = k - 1 - num // k
                if e < 0:
                    continue
                try:
                    p = SrgParams(n, k, e, d)
                    eigen_data(p)
                except InfeasibleParams:
                    continue
                if not is_primitive(p):
                    continue
                if energy_closed(p) == energy_closed(complement_params(p)):
                    hits.append(p)
    return hits


def test_enumeration_small_window():
    got = {p for p, _, _, _ in enumerate_equien(16)}
    assert SrgParams(16, 6, 2, 2) in got
    assert SrgParams(16, 9, 4, 6) in got
    assert SrgParams(4, 2, 0, 2) not in got     # imprimitive
    assert SrgParams(5, 2, 0, 1) in got


def test_enumeration_matches_brute_force_oracle():
    fast = {p for p, _, _, _ in enumerate_equien(120)}
    slow = set(brute_force_equien(120))
    assert fast == slow


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 200), st.integers(0, 120))
def test_enumeration_shard_equals_filter(lo, width):
    hi = lo + width
    whole = enumerate_equien(hi)
    assert enumerate_equien(hi, n_min=lo) == [row for row in whole if row[0].n >= lo]


def test_enumeration_raises_on_a_hit_classify_rejects(monkeypatch):
    monkeypatch.setattr(srg_module, "classify", lambda p, data: NotEquien("rejected"))
    with pytest.raises(AssertionError, match="unclassifiable"):
        enumerate_equien(20)


def test_theorem_tuples_small():
    assert theorem_tuples(9) == [SrgParams(9, 4, 1, 2)]           # OA(3, 2) is conference
    assert theorem_tuples(16) == [SrgParams(16, 6, 2, 2), SrgParams(16, 9, 4, 6)]
    assert theorem_tuples(25) == [SrgParams(25, 8, 3, 2), SrgParams(25, 12, 5, 6),
                                  SrgParams(25, 16, 9, 12)]
    assert theorem_tuples(13) == [SrgParams(13, 6, 2, 3)]
    assert [theorem_tuples(n) for n in (2, 4, 7, 8)] == [[], [], [], []]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2500), st.integers(0, 80))
@example(2401, 0)    # 49^2 = 4 * 600 + 1: 47 OA tuples, one of them the conference tuple
@example(2500, 0)    # 50^2: 48 OA tuples, no conference tuple
def test_theorem_tuples_equal_primitive_scan_hits(lo, width):
    for n in range(lo, min(lo + width, 2500) + 1):
        scan = [p for p in srg_module._equien_scan(n) if is_primitive(p)]
        assert theorem_tuples(n) == scan, n


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 3000), st.integers(-5, 3000))
@example(-5, -1)     # no vertex count at all
@example(-5, 30)     # a lower bound below any tuple
@example(9, 9)       # OA(3, 2) is the conference tuple on 9 vertices
@example(2401, 2401) # 49^2 = 4 * 600 + 1
@example(2500, 2500) # 50^2: OA tuples only
@example(6, 8)       # between the first conference count and the first odd square
def test_theorem_range_equals_the_per_n_tuples(a, b):
    n_min, n_max = min(a, b), max(a, b)
    # the per-n reference refuses n < 0, where no tuple exists
    want = [p for n in range(max(n_min, 0), n_max + 1) for p in per_n_theorem_tuples(n)]
    assert list(srg_module._theorem_range(n_max, n_min)) == want
    if n_min == n_max:
        assert theorem_tuples(n_min) == want


@pytest.mark.parametrize("n_min", [-3, -1, 0, 1, 4])
def test_a_lower_bound_below_five_lists_the_default_rows(n_min):
    assert enumerate_equien(30, n_min=n_min) == enumerate_equien(30)
    assert theorem_tuples(n_min) == []


def test_only_irrational_conference_rows_factor_or_build_an_exact_value(monkeypatch):
    """Over enumerate_equien(2500) and each row's energy, only the conference
    rows with a non-square n factor (once each) or build an ExactValue (the
    energy); an integral energy is an int, and each row builds two Surds,
    r and s."""
    from equigraph import exact
    built, factored = [], []
    # every Surd and ExactValue is built by __init__ or by a canonical factory
    for cls, name in ((Surd, "__init__"), (Surd, "_canonical"),
                      (ExactValue, "__init__"), (ExactValue, "_from_squarefree")):
        def counted(*args, _cls=cls, _real=getattr(cls, name)):
            built.append(_cls)
            return _real(*args)
        monkeypatch.setattr(cls, name, counted if name == "__init__" else staticmethod(counted))
    decompose = exact.squarefree_decompose
    monkeypatch.setattr(exact, "squarefree_decompose",
                        lambda d: factored.append(d) or decompose(d))
    rows = enumerate_equien(2500)
    energies = [energy_closed(p, data) for p, data, _, _ in rows]
    monkeypatch.undo()
    irrational = [p.n for p, _, cls, _ in rows
                  if isinstance(cls, Conference) and isqrt(p.n) ** 2 != p.n]
    assert (len(rows), len(irrational)) == (1776, 600)
    assert factored == irrational
    assert built.count(Surd) == 2 * len(rows)
    assert built.count(ExactValue) == len(irrational)
    assert sum(type(x) is int for x in energies) == len(rows) - len(irrational)


def test_scan_row_passes_and_fails_when_an_oa_tuple_is_dropped(monkeypatch):
    assert verify_srg_enumeration(n_max=120, oracle_n_max=5)[-1].passed
    real = srg_module._theorem_range
    monkeypatch.setattr(srg_module, "_theorem_range", lambda n_max, n_min=2: [
        p for p in real(n_max, n_min) if p != SrgParams(64, 21, 8, 6)])
    row = verify_srg_enumeration(n_max=120, oracle_n_max=5)[-1]
    assert row.claim == "the primitive scan hits equal enumerate_equien for n <= 120"
    assert not row.passed and row.details == "srg(64,21,8,6)"


def test_faulty_generator_fails_verify_rows_and_still_trips_the_guards(monkeypatch):
    real = srg_module._theorem_range
    extra = SrgParams(4, 2, 0, 2)  # OA(2, 2): classify rejects it
    monkeypatch.setattr(srg_module, "_theorem_range", lambda n_max, n_min=2: [
        *([extra] if n_min <= 4 <= n_max else []), *real(n_max, n_min)])
    with pytest.raises(AssertionError, match=r"srg\(4,2,0,2\)"):
        enumerate_equien(30)
    rows = verify_srg_enumeration(n_max=30, oracle_n_max=30)
    assert not rows[0].passed and rows[0].details == "srg(4,2,0,2)"
    assert not rows[-1].passed and rows[-1].details == "srg(4,2,0,2)"


def _former_oracle_direct_energy(n_max: int) -> set[SrgParams]:
    """The direct-energy oracle as it was: every d in 1..k-1, filtered on k | d(n-k-1)."""
    hits = set()
    for n in range(5, n_max + 1):
        for k in range(1, n - 1):
            for d in range(1, k):
                num = d * (n - k - 1)
                if num % k:
                    continue
                e = k - 1 - num // k
                if e < 0:
                    continue
                try:
                    p = SrgParams(n, k, e, d)
                    data = eigen_data(p)
                except InfeasibleParams:
                    continue
                if not is_primitive(p):
                    continue
                if energy_closed(p, data) == energy_closed(complement_params(p)):
                    hits.add(p)
    return hits


def test_direct_energy_oracle_steps_over_the_same_tuples():
    stepped = _oracle_direct_energy(120)
    assert stepped == _former_oracle_direct_energy(120)
    assert SrgParams(16, 6, 2, 2) in stepped and SrgParams(25, 12, 5, 6) in stepped


def test_direct_energy_oracle_formats_no_discarded_message(monkeypatch):
    calls = []
    monkeypatch.setattr(SrgParams, "__str__", lambda p: calls.append(p) or "srg")
    assert SrgParams(16, 6, 2, 2) in _oracle_direct_energy(60)
    assert calls == []


def test_infeasible_messages_are_formatted_when_read():
    with pytest.raises(InfeasibleParams) as info:
        eigen_data(SrgParams(10, 3, 1, 1))
    assert str(info.value) == "counting identity fails for srg(10,3,1,1)"
    with pytest.raises(InfeasibleParams) as info:
        CaseB(h=0, l=1)
    assert str(info.value) == "excluded l for CaseB(h=0): 1"
    assert str(InfeasibleParams("no fields {}")) == "no fields {}"


# -- the tuple-backed records ------------------------------------------------------


def _assert_built_as_the_former_dataclass(record, former, args):
    """``record(*args)`` raises the former dataclass's InfeasibleParams text,
    or has its fields, repr and str."""
    try:
        want = former(*args)
    except InfeasibleParams as exc:
        with pytest.raises(InfeasibleParams) as info:
            record(*args)
        assert str(info.value) == str(exc)
        return
    got = record(*args)
    assert type(got) is record
    assert tuple(got) == tuple(getattr(want, name) for name in got._fields)
    assert repr(got) == repr(want).removeprefix("Former")
    assert str(got) == str(want).removeprefix("Former")


_wide_int_st = st.integers(-2 ** 70, 2 ** 70)


@st.composite
def _near_feasible_st(draw):
    """(n, k, e, d) around the feasible region, so that about half are refused."""
    n = draw(st.integers(-3, 60))
    k = draw(st.integers(-2, max(n + 1, -2)))
    return n, k, draw(st.integers(-2, max(k + 1, -2))), draw(st.integers(-2, max(k + 2, -2)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_near_feasible_st(), st.tuples(*[_wide_int_st] * 4)))
@example((5, 2, 0, 1))
@example((10, 10, 1, 1))
@example((10, 3, -1, 1))
@example((10, 3, 3, 1))
def test_srg_params_validate_as_the_former_dataclass(args):
    _assert_built_as_the_former_dataclass(SrgParams, FormerSrgParams, args)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([(CaseB, FormerCaseB), (CaseC, FormerCaseC)]),
       st.one_of(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                 st.tuples(_wide_int_st, _wide_int_st)))
@example((CaseC, FormerCaseC), (0, 3))
def test_case_records_validate_as_the_former_dataclasses(pair, args):
    _assert_built_as_the_former_dataclass(*pair, args)


_RECORDS = [
    (SrgParams(5, 2, 0, 1), "SrgParams(n=5, k=2, e=0, d=1)"),
    (eigen_data(SrgParams(16, 6, 2, 2)),
     "SrgEigenData(alpha=16, r=Surd(2), s=Surd(-2), m_r=6, m_s=9, conference=False)"),
    (eigen_data(SrgParams(5, 2, 0, 1)),
     "SrgEigenData(alpha=5, r=Surd(-1/2 + 1/2*sqrt(5)), s=Surd(-1/2 - 1/2*sqrt(5)),"
     " m_r=2, m_s=2, conference=True)"),
    (NotEquien(), "NotEquien(reason='')"),
    (NotEquien("condition fails"), "NotEquien(reason='condition fails')"),
    (Conference(d=6), "Conference(d=6)"),
    (CaseB(h=0, l=2), "CaseB(h=0, l=2)"),
    (CaseC(h=1, l=3), "CaseC(h=1, l=3)"),
]
_RECORD_IDS = [f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(_RECORDS)]


@pytest.mark.parametrize("record, text", _RECORDS, ids=_RECORD_IDS)
def test_a_record_keeps_the_dataclass_repr(record, text):
    assert repr(record) == text
    assert str(record) == ("srg(5,2,0,1)" if type(record) is SrgParams else text)


@pytest.mark.parametrize("record, _text", _RECORDS, ids=_RECORD_IDS)
def test_a_record_is_immutable(record, _text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record, _text", _RECORDS, ids=_RECORD_IDS)
def test_a_record_survives_pickle_and_copy(record, _text):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and not twin != record
        assert hash(twin) == hash(record) and repr(twin) == repr(record)


def test_equal_records_hash_equal():
    for make in (lambda: SrgParams(16, 6, 2, 2), lambda: eigen_data(SrgParams(16, 6, 2, 2)),
                 lambda: classify(SrgParams(16, 6, 2, 2)), lambda: classify(SrgParams(25, 12, 5, 6)),
                 lambda: classify(SrgParams(10, 3, 0, 1)), lambda: CaseC(h=1, l=3)):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_a_record_equals_only_its_own_type():
    p = SrgParams(5, 2, 0, 1)
    assert p != (5, 2, 0, 1) and not p == (5, 2, 0, 1)
    assert (5, 2, 0, 1) != p and not (5, 2, 0, 1) == p
    b, c = CaseB(h=1, l=3), CaseC(h=1, l=3)
    assert tuple(b) == tuple(c)
    assert b != c and c != b and not b == c and len({b, c}) == 2
    assert Conference(d=3) != (3,) and NotEquien("x") != ("x",)
    assert SrgParams(16, 6, 2, 2) in {SrgParams(16, 6, 2, 2)}
    assert (16, 6, 2, 2) not in {SrgParams(16, 6, 2, 2)}


def test_enumeration_closed_under_complement():
    for p, _, _, _ in enumerate_equien(200):
        comp = complement_params(p)
        assert equien_condition(comp)


def test_enumeration_energies_divisible_by_four():
    for p, _, cls, _ in enumerate_equien(300):
        if isinstance(cls, Conference):
            continue
        energy = energy_closed(p)
        assert type(energy) is int and energy % 4 == 0


def test_oa_tuples_pass_whenever_primitive_feasible():
    # sweep m in [2, n+2] minus {n, n+1}: each feasible primitive OA tuple
    # passes, and the complement has equal degree exactly when m = (n+1)/2
    for n in range(2, 61):
        for m in range(2, n + 3):
            if m in (n, n + 1):
                continue
            e = m * m - 3 * m + n
            if e < 0:
                continue
            try:
                p = SrgParams(n * n, m * (n - 1), e, m * (m - 1))
                eigen_data(p)
            except InfeasibleParams:
                continue
            if not is_primitive(p):
                continue
            assert equien_condition(p), p
            same_degree = complement_params(p).k == p.k
            assert same_degree == (2 * m == n + 1), p


# -- imprimitive rule ---------------------------------------------------------------------

def test_imprimitive_rule():
    """K_{a x m} is equienergetic with its complement exactly when a == m."""
    for a in range(2, 8):
        for m in range(2, 8):
            spec = exact_spectrum_of_family("complete_multipartite", a=a, m=m)
            report = check_equienergetic(spec, k=(a - 1) * m)
            assert report.equal == (a == m) and report.routes_agree, (a, m)


# -- generalized Paley closed forms ---------------------------------------------------------

def test_gp_spectrum_64():
    report = gp_spectrum(3, 64)
    assert report.equien and report.s == 3 and report.t == 1
    from equigraph.spectra import Spectrum
    assert report.spectrum == Spectrum([(21, 1), (5, 21), (-3, 42)])


def test_gp_spectrum_16():
    report = gp_spectrum(3, 16)
    assert not report.equien and report.s == 2
    from equigraph.spectra import Spectrum
    assert report.spectrum == Spectrum([(5, 1), (1, 10), (-3, 5)])


def test_gp_spectrum_matches_constructed_graphs():
    for k, q in ((3, 16), (3, 64)):
        report = gp_spectrum(k, q)
        numeric = numeric_spectrum(gp_graph(k, q))
        assert spectra_match(numeric, report.spectrum)


def test_gp_spectrum_rejects_non_semiprimitive():
    with pytest.raises(ValueError):
        gp_spectrum(3, 27)      # odd extension degree
    with pytest.raises(ValueError):
        gp_spectrum(5, 16)      # k = sqrt(q) + 1 excluded
    with pytest.raises(ValueError):
        gp_spectrum(2, 25)      # classical quadratic case is out of scope here


def test_gp_equien_verdict_against_direct_energy():
    from equigraph.spectra import check_equienergetic
    for k, q in ((3, 16), (3, 64)):
        report = gp_spectrum(k, q)
        deg = (q - 1) // k
        check = check_equienergetic(report.spectrum, k=deg)
        assert check.equal == report.equien
        assert check.routes_agree


def test_spectrum_of_matches_srg_detect_route():
    p = SrgParams(16, 6, 2, 2)
    assert spectra_match(numeric_spectrum(shrikhande()), spectrum_of(p))
    assert is_conference(SrgParams(5, 2, 0, 1))
