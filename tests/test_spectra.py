import json
import random
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equigraph import graphs as G
from equigraph.exact import ExactValue, Surd, exact_sum
from equigraph.spectra import (
    APPROX_RADIUS_CAP,
    Approximate,
    Eig,
    Spectrum,
    UncertifiableBranch,
    check_equienergetic,
    complement_spectrum,
    delta_branch,
    discrepancy,
    energy,
    spectra_match,
)
from equigraph.spectra import _sp_prime

from oracles import delta_of, generic_exact_route, read_spectrum_json


def spec(values, principal=0):
    return Spectrum.from_values(values) if principal == 0 else Spectrum(
        [(Eig.from_exact(v if isinstance(v, Surd) else Surd(v)), m) for v, m in values],
        principal=principal,
    )


# -- delta ---------------------------------------------------------------

def test_delta_branches():
    assert delta_of(Eig.from_exact(3)) == ExactValue.from_rational(1)
    assert delta_of(Eig.from_exact(-2)) == ExactValue.from_rational(-1)
    golden = Surd(Fraction(-1, 2), Fraction(1, 2), 5)   # about 0.618
    assert delta_of(Eig.from_exact(golden)) == ExactValue.from_rational(1)


def test_delta_inside_unit_interval_is_exact_and_linear():
    x = Surd(Fraction(-1, 4))
    assert delta_of(Eig.from_exact(x)) == ExactValue.from_rational(Fraction(1, 2))
    irr = Surd(1, -1, 2)    # 1 - sqrt(2), in (-1, 0)
    assert delta_of(Eig.from_exact(irr)) == ExactValue([(1, 3), (2, -2)])


def test_delta_matches_abs_definition_randomly():
    rng = random.Random(7)
    radicands = [1, 2, 3, 5, 6, 7, 13, 17]
    for _ in range(10_000):
        x = Surd(Fraction(rng.randint(-40, 40), rng.randint(1, 8)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 8)),
                 rng.choice(radicands))
        via_branch = delta_of(Eig.from_exact(x))
        assert via_branch + exact_sum([(abs(x), 1)]) == exact_sum([(abs(x + 1), 1)])


def test_delta_approx_certified_and_refused():
    assert delta_of(Eig.from_approx(2.5, 1e-8)) == ExactValue.from_rational(1)
    assert delta_of(Eig.from_approx(-1.3473, 1e-10)) == ExactValue.from_rational(-1)
    with pytest.raises(UncertifiableBranch):
        delta_of(Eig.from_approx(0.0, 1e-8))
    with pytest.raises(UncertifiableBranch):
        delta_of(Eig.from_approx(-0.5, 1e-8))
    with pytest.raises(UncertifiableBranch):
        delta_of(Eig.from_approx(-1.0, 1e-8))


def test_delta_assume_exact_midpoint():
    assert delta_of(Eig.from_approx(0.0, 1e-8), assume_exact=True) == ExactValue.from_rational(1)
    got = delta_of(Eig.from_approx(-0.5, 1e-8), assume_exact=True)
    assert got == ExactValue.from_rational(0)


def test_assume_exact_snaps_within_the_entry_radius():
    # C4 {2, 0^2, -2} with its zero reported at -5e-9 +- 1e-8: the interval
    # holds 0, so the assume-exact verdict must match the exact one
    exact = spec([(2, 1), (0, 2), (-2, 1)])
    approx = Spectrum([(Eig.from_exact(2), 1), (Eig.from_approx(-5e-9, 1e-8), 2),
                       (Eig.from_exact(-2), 1)])
    assert check_equienergetic(exact, k=2).equal
    assert check_equienergetic(approx, k=2, assume_exact=True).equal


# -- discrepancy ----------------------------------------------------------

def test_discrepancy_crown3():
    s = spec([(2, 1), (1, 2), (-1, 2), (-2, 1)])
    b = discrepancy(s)
    assert b.delta_total == ExactValue.from_rational(-1)
    assert (b.sigma, b.T, b.m0) == (-1, 0, 0)
    assert b.S == ExactValue()


def test_discrepancy_complete_bipartite():
    t = 3
    s = spec([(t, 1), (0, 2 * t - 2), (-t, 1)])
    b = discrepancy(s)
    assert b.delta_total == ExactValue.from_rational(b.m0 - 1)
    assert b.delta_total == ExactValue.from_rational(3)


def test_discrepancy_complete_multipartite():
    a, m = 3, 2
    s = spec([((a - 1) * m, 1), (0, a * (m - 1)), (-m, a - 1)])
    b = discrepancy(s)
    assert b.delta_total == ExactValue.from_rational(a * m - 2 * a + 1)
    assert b.delta_total == ExactValue.from_rational(1)
    assert b.delta_total == ExactValue.from_rational(b.m0 + b.sigma)


def test_sp_prime_removes_single_copy_of_repeated_principal():
    # Cr(2) = 2K_2 has principal eigenvalue 1 with multiplicity 2
    s = spec([(1, 2), (-1, 2)])
    b = discrepancy(s)
    # Sp' = {1, -1, -1}: sigma = 1 - 2 = -1
    assert b.sigma == -1
    assert b.delta_total == ExactValue.from_rational(-1)


# -- energy ----------------------------------------------------------------

def test_energy_examples():
    q3 = spec([(3, 1), (1, 3), (-1, 3), (-3, 1)])
    assert energy(q3) == ExactValue.from_rational(12)
    prism = spec([(3, 1), (1, 1), (0, 2), (-2, 2)])
    assert energy(prism) == ExactValue.from_rational(8)
    shrikhande = spec([(6, 1), (2, 6), (-2, 9)])
    assert energy(shrikhande) == ExactValue.from_rational(36)


def test_energy_interval_for_approx_entries():
    s = Spectrum([(Eig.from_approx(2.4494897, 1e-8), 2),
                  (Eig.from_exact(3), 1),
                  (Eig.from_exact(-3), 1)])
    e = energy(s)
    assert isinstance(e, Approximate)
    assert e.radius == pytest.approx(2e-8)
    assert e.value == pytest.approx(6 + 2 * 2.4494897)


# -- complement ---------------------------------------------------------------

def test_complement_crown2_gives_c4():
    cr2 = spec([(1, 2), (-1, 2)])
    c4 = complement_spectrum(cr2, k=1)
    assert c4 == spec([(2, 1), (0, 2), (-2, 1)])


def test_complement_ktt_gives_2kt():
    t = 2
    ktt = spec([(t, 1), (0, 2 * t - 2), (-t, 1)])
    got = complement_spectrum(ktt, k=t)
    assert got == spec([(t - 1, 2), (-1, 2 * t - 2)])


def test_complement_is_involution():
    samples = [
        spec([(3, 1), (1, 5), (-2, 4)]),
        spec([(4, 1), (1, 2), (0, 3), (-2, 1), (-1, 3)]),
        spec([(2, 1), (Surd(Fraction(-1, 2), Fraction(1, 2), 5), 2),
              (Surd(Fraction(-1, 2), Fraction(-1, 2), 5), 2)]),
    ]
    for s in samples:
        k = int(s.principal_eig.exact.a)
        back = complement_spectrum(complement_spectrum(s, k), s.n - k - 1)
        assert back == s


def test_complement_with_loops_negates():
    # J - A of a 2-regular spectrum on 4 vertices: degree 4 - 2 = 2 joins
    # the negated -2, so the principal entry carries multiplicity 2
    s = spec([(2, 1), (0, 2), (-2, 1)])
    got = complement_spectrum(s, k=2, loops=True)
    assert [(eig.exact, m) for eig, m in got.entries] == [(Surd(2), 2), (Surd(0), 2)]
    assert got.principal_eig.exact == Surd(2)


# -- equienergy check -----------------------------------------------------------

def test_check_q3_equal():
    q3 = spec([(3, 1), (1, 3), (-1, 3), (-3, 1)])
    report = check_equienergetic(q3, k=3)
    assert report.equal
    assert report.energy == ExactValue.from_rational(12)
    assert report.energy_complement == ExactValue.from_rational(12)
    assert report.routes_agree


def test_check_k4_not_equal():
    k4 = spec([(3, 1), (-1, 3)])
    report = check_equienergetic(k4, k=3)
    assert not report.equal
    assert report.delta == ExactValue.from_rational(-3)
    assert report.routes_agree


def test_check_petersen_not_equal():
    pet = spec([(3, 1), (1, 5), (-2, 4)])
    report = check_equienergetic(pet, k=3)
    assert not report.equal
    assert report.routes_agree


def test_check_agrees_with_direct_energy_comparison():
    samples = [
        (spec([(3, 1), (1, 3), (-1, 3), (-3, 1)]), 3),
        (spec([(3, 1), (-1, 3)]), 3),
        (spec([(3, 1), (1, 5), (-2, 4)]), 3),
        (spec([(6, 1), (2, 6), (-2, 9)]), 6),
        (spec([(4, 1), (0, 3), (-2, 2)], principal=0), 4),
        (spec([(2, 1), (Surd(Fraction(-1, 2), Fraction(1, 2), 5), 2),
               (Surd(Fraction(-1, 2), Fraction(-1, 2), 5), 2)]), 2),
    ]
    for s, k in samples:
        report = check_equienergetic(s, k=k)
        direct = energy(s) == energy(complement_spectrum(s, k))
        assert report.equal == direct
        assert report.routes_agree


def test_irrational_eigenvalue_in_unit_interval_blocks_equality():
    # witness multiset with 1 - sqrt(2) inside (-1, 0): the linear branch of
    # delta makes the total discrepancy irrational, so equality is impossible
    witness = spec([(3, 1), (Surd(1, 1, 2), 6), (2, 8), (Surd(1, -1, 2), 6), (-1, 7)])
    report = check_equienergetic(witness, k=3)
    assert not report.equal
    assert not report.delta.is_rational


def test_check_with_loops_uses_n_equals_2k():
    # E(A) = k + sum' |x| and E(J - A) = (n - k) + sum' |x|
    s = spec([(2, 1), (0, 2), (-2, 1)])     # n=4, k=2
    report = check_equienergetic(s, k=2, loops=True)
    assert report.equal and report.routes_agree
    assert report.energy == report.energy_complement == ExactValue.from_rational(4)
    s5 = spec([(2, 1), (1, 2), (-1, 1), (-2, 1)])  # n=5, k=2: 5 != 4
    report = check_equienergetic(s5, k=2, loops=True)
    assert not report.equal and report.routes_agree
    assert report.energy_complement == ExactValue.from_rational(8)


@pytest.mark.parametrize("n", range(4, 10))
def test_looped_complement_spectrum_matches_j_minus_a(n):
    looped = G.Graph(G.cycle(n).adj | np.eye(n, dtype=bool), loops_allowed=True)
    complement_spec = complement_spectrum(G.numeric_spectrum(looped), k=3, loops=True)
    numeric = G.numeric_spectrum(G.complement(looped, loops=True))
    assert spectra_match(complement_spec, numeric)


# -- JSON round trip ---------------------------------------------------------------

def test_spectrum_json_round_trip():
    s = Spectrum([
        (Eig.from_exact(Surd(Fraction(-1, 2), Fraction(1, 2), 5)), 2),
        (Eig.from_exact(2), 1),
        (Eig.from_approx(-1.5615528128, 1e-10), 9),
    ])
    back = read_spectrum_json(json.loads(json.dumps(s.to_json_dict())))
    assert back == s
    assert back.principal == s.principal


# -- the float-sorted, hash-merged constructor against the exact reference ---------

def _pell(count):
    """Convergents p/q of sqrt(2): p*p - 2*q*q = +-1."""
    p, q = 1, 1
    out = []
    for _ in range(count):
        out.append((p, q))
        p, q = p + 2 * q, p + q
    return out


_PELL = _pell(30)
_NEAR_TIES = [Surd(1, 1, 2), Surd(Fraction(3363, 2378) + 1), Surd(Fraction(3363, 1393)),
              Surd(0, 1, 2), Surd(10 ** 17), Surd(10 ** 17 + 1), Surd(10 ** 17 - 1),
              Surd(Fraction(10 ** 17 * 3 + 1, 3))]
for _p, _q in _PELL:
    _NEAR_TIES += [Surd(Fraction(_p, _q)), Surd(1 + Fraction(_p, _q)),
                   Surd(_p, -_q, 2),        # +-1/(p + q*sqrt(2)), large float error
                   Surd(1 + _p, -_q, 2), Surd(-1 + _p, -_q, 2)]

_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_mixed_surds = st.builds(Surd, _rationals, _rationals.filter(bool),
                         st.sampled_from([2, 3, 5, 6, 7, 10, 8, 12]))
_exact_values = st.one_of(
    st.integers(-40, 40).map(Surd),
    _rationals.map(Surd),
    _mixed_surds,
    st.sampled_from(_NEAR_TIES),
)
# approximate values sit on a grid that no near-tie above straddles, so the
# reference comparator (exact between exact entries, float otherwise) is a
# consistent order on every drawn spectrum
_approx_eigs = st.builds(Eig.from_approx,
                         st.integers(-80, 79).map(lambda k: (k + 0.5) / 4),
                         st.sampled_from([0.0, 1e-9, 1e-8, 1e-7]))
_eigs = st.one_of(_exact_values.map(Eig.from_exact), _approx_eigs)
_entry_lists = st.lists(st.tuples(_eigs, st.integers(1, 4)), min_size=1, max_size=24)
_exact_entry_lists = st.lists(st.tuples(_exact_values.map(Eig.from_exact), st.integers(1, 4)),
                              min_size=1, max_size=24)


def _reference_cmp(p, q):
    x, y = p[0], q[0]
    if x.exact is not None and y.exact is not None:
        return -x.exact.compare(y.exact)
    if x.value != y.value:
        return -1 if x.value > y.value else 1
    if x.is_exact != y.is_exact:
        return -1 if x.is_exact else 1
    if x.radius != y.radius:
        return -1 if x.radius < y.radius else 1
    return 0


def _reference_entries(entries):
    """Linear merge of equal exact values, then a sort on exact comparisons."""
    merged = []
    for eig, mult in entries:
        for i, (other, m) in enumerate(merged):
            if eig.exact is not None and other.exact is not None and eig.exact == other.exact:
                merged[i] = (other, m + mult)
                break
        else:
            merged.append((eig, mult))
    merged.sort(key=cmp_to_key(_reference_cmp))
    return merged


def _rows(entries):
    return [(e.exact, e.value, e.radius, m) for e, m in entries]


@settings(max_examples=300, deadline=None)
@given(_entry_lists)
def test_spectrum_matches_reference_merge_and_sort(entries):
    assert _rows(Spectrum(entries).entries) == _rows(_reference_entries(entries))


@settings(max_examples=200, deadline=None)
@given(_exact_entry_lists, st.data())
def test_spectrum_principal_value_matches_index(entries, data):
    ref = _reference_entries(entries)
    i = data.draw(st.integers(0, len(ref) - 1))
    s = Spectrum(entries, principal_value=ref[i][0].exact)
    assert s.principal == i
    assert s == Spectrum(entries, principal=i)


def test_spectrum_float_ties_use_the_exact_order():
    big = [(Eig.from_exact(10 ** 17), 1), (Eig.from_exact(10 ** 17 + 1), 1),
           (Eig.from_exact(10 ** 17 - 1), 2)]
    assert float(10 ** 17) == float(10 ** 17 + 1)
    s = Spectrum(big)
    assert [e.exact for e, _ in s.entries] == [Surd(10 ** 17 + 1), Surd(10 ** 17),
                                                Surd(10 ** 17 - 1)]
    p, q = _PELL[-1]
    near = Spectrum([(Eig.from_exact(Surd(0, 1, 2)), 1), (Eig.from_exact(Fraction(p, q)), 1)])
    assert near.entries[0][0].value == near.entries[1][0].value
    assert (near.entries[0][0].exact > near.entries[1][0].exact)


def test_spectrum_exact_comparator_only_on_float_near_ties(monkeypatch):
    calls = []
    original = Surd.compare

    def counted(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Surd, "compare", counted)
    Spectrum.from_values([(v, 1) for v in range(-300, 300, 7)] + [(3, 2), (-2, 5)])
    Spectrum.from_values([(Surd(0, 1, 2), 1), (Surd(Fraction(1, 3)), 1), (Surd(1, -1, 5), 2)])
    assert calls == []
    Spectrum.from_values([(10 ** 17, 1), (10 ** 17 + 1, 1), (5, 3)])
    assert calls and all({x, y} == {Surd(10 ** 17), Surd(10 ** 17 + 1)} for x, y in calls)
    # (int, mult) pairs merge and sort as ints, so even float ties need no comparator
    calls.clear()
    ints = Spectrum([(10 ** 17, 1), (10 ** 17 + 1, 1), (5, 3)])
    assert calls == [] and ints.integral == ((10 ** 17 + 1, 1), (10 ** 17, 1), (5, 3))


def test_spectrum_principal_value_errors():
    entries = [(Eig.from_exact(2), 1), (Eig.from_exact(-2), 1)]
    with pytest.raises(ValueError):
        Spectrum(entries, principal_value=3)
    with pytest.raises(ValueError):
        Spectrum(entries, principal=1, principal_value=2)
    assert Spectrum(entries, principal_value=-2).principal == 1


def _reference_complement(s, k, loops):
    """The former two-step build: construct, then look the degree up and rebuild."""
    n = s.n
    degree = Surd(n - k if loops else n - k - 1)
    new_entries = [(Eig.from_exact(degree), 1)]
    for eig, mult in _sp_prime(s.entries, s.principal):
        if eig.exact is not None:
            mapped = -eig.exact if loops else Surd(-1) + -eig.exact
            new_entries.append((Eig.from_exact(mapped), mult))
        else:
            v = -eig.value if loops else -1.0 - eig.value
            new_entries.append((Eig.from_approx(v, eig.radius), mult))
    ref = _reference_entries(new_entries)
    principal = next(i for i, (eig, _) in enumerate(ref)
                     if eig.exact is not None and eig.exact == degree)
    return ref, principal


@settings(max_examples=200, deadline=None)
@given(_entry_lists, st.booleans(), st.data())
def test_complement_single_build_matches_two_step(entries, loops, data):
    ref = _reference_entries(entries)
    principal = data.draw(st.integers(0, len(ref) - 1))
    s = Spectrum(entries, principal=principal)
    k = data.draw(st.integers(0, max(0, s.n - 1)))
    got = complement_spectrum(s, k, loops=loops)
    want, want_principal = _reference_complement(s, k, loops)
    assert _rows(got.entries) == _rows(want)
    assert got.principal == want_principal
    assert got.n == s.n


def _reference_discrepancy(s):
    sigma = t_count = m0 = 0
    s_terms = ExactValue()
    for eig, mult in _sp_prime(s.entries, s.principal):
        v = eig.exact
        if v.compare(Surd(1)) >= 0:
            sigma += mult
        elif v.compare(Surd(-1)) <= 0:
            sigma -= mult
        elif v.sign() == 0:
            m0 += mult
        elif v.sign() > 0:
            t_count += mult
        else:
            s_terms = s_terms + exact_sum([(v * 2 + 1, mult)])
    return sigma, t_count, m0, s_terms


@settings(max_examples=300, deadline=None)
@given(_exact_entry_lists)
def test_discrepancy_matches_exact_comparisons(entries):
    s = Spectrum(entries)
    b = discrepancy(s)
    assert (b.sigma, b.T, b.m0, b.S) == _reference_discrepancy(s)
    for eig, _ in s.entries:
        v = eig.exact
        assert delta_of(eig) + exact_sum([(abs(v), 1)]) == exact_sum([(abs(v + 1), 1)])


# -- the sigma/T split of a numeric interval does not depend on the labelling -------

@pytest.mark.parametrize("perm", [[4, 5, 2, 6, 3, 8, 7, 0, 1],
                                  [8, 0, 7, 1, 3, 6, 2, 4, 5]])
def test_co_lattice_breakdown_independent_of_labelling(perm):
    # co-lattice(3) has Sp' = {1^4, -2^4}: sigma = 0, T = 0 exactly.  Under the
    # second labelling the eigensolver returns the 1s at 0.9999999999999998.
    g = G.complement(G.lattice(3))
    h = G.Graph(g.adj[np.ix_(perm, perm)])
    b = discrepancy(G.numeric_spectrum(h))
    assert (b.sigma, b.T, b.m0) == (0, 0, 0)
    assert b.delta_total == ExactValue()


def test_interval_reaching_one_counts_as_sigma():
    below = Spectrum([(Eig.from_exact(4), 1), (Eig.from_approx(1 - 1e-12, 1e-8), 4),
                      (Eig.from_approx(0.5, 1e-8), 1)])
    b = discrepancy(below)
    assert (b.sigma, b.T) == (4, 1)
    assert b.delta_total == ExactValue.from_rational(5)


# -- the one branch rule against the former three ----------------------------------
#
# The reference below is the earlier implementation: a float-first rule for
# exact values, a region rule for intervals and a separate sigma/T/m0 split
# inside the discrepancy loop.


def _reference_assumed_value(e):
    nearest = round(e.value)
    if abs(e.value - nearest) <= e.radius:
        return Fraction(nearest)
    return Fraction(e.value)


def _reference_region(e, assume_exact):
    if e.radius > APPROX_RADIUS_CAP and not assume_exact:
        raise UncertifiableBranch("radius")
    if e.lo >= 0:
        return "nonneg"
    if e.hi <= -1:
        return "le_m1"
    if not assume_exact:
        raise UncertifiableBranch("region")
    v = _reference_assumed_value(e)
    if v >= 0:
        return "nonneg"
    if v <= -1:
        return "le_m1"
    return "unit_neg"


def _reference_exact_branch(x, value):
    err = x.float_error()
    if value - err >= 1:
        return "sigma+"
    if value + err <= -1:
        return "sigma-"
    if err == 0.0:
        return "m0"
    if err < value < 1 - err:
        return "T"
    if -1 + err < value < -err:
        return "S"
    sign = x.sign()
    if sign == 0:
        return "m0"
    if sign > 0:
        return "sigma+" if x.compare(Surd(1)) >= 0 else "T"
    return "sigma-" if x.compare(Surd(-1)) <= 0 else "S"


def _reference_delta_of(x, assume_exact):
    if x.exact is not None:
        branch = _reference_exact_branch(x.exact, x.value)
        if branch == "sigma-":
            return ExactValue.from_rational(-1)
        if branch == "S":
            return exact_sum([(x.exact * 2 + 1, 1)])
        return ExactValue.from_rational(1)
    region = _reference_region(x, assume_exact)
    if region == "nonneg":
        return ExactValue.from_rational(1)
    if region == "le_m1":
        return ExactValue.from_rational(-1)
    return ExactValue.from_rational(2 * _reference_assumed_value(x) + 1)


def _reference_breakdown(s, assume_exact):
    sigma = t_count = m0 = 0
    s_terms = ExactValue()
    for eig, mult in _sp_prime(s.entries, s.principal):
        if eig.exact is not None:
            branch = _reference_exact_branch(eig.exact, eig.value)
            if branch == "sigma+":
                sigma += mult
            elif branch == "sigma-":
                sigma -= mult
            elif branch == "m0":
                m0 += mult
            elif branch == "T":
                t_count += mult
            else:
                s_terms = s_terms + exact_sum([(eig.exact * 2 + 1, mult)])
        else:
            region = _reference_region(eig, assume_exact)
            if region == "le_m1":
                sigma -= mult
            elif region == "unit_neg":
                s_terms = s_terms + ExactValue.from_rational(
                    (2 * _reference_assumed_value(eig) + 1) * mult)
            else:
                reading = _reference_assumed_value(eig) if assume_exact else None
                if eig.hi >= 1 or (reading is not None and reading >= 1):
                    sigma += mult
                elif reading == 0 or (eig.value == 0 and eig.radius == 0):
                    m0 += mult
                else:
                    t_count += mult
    return sigma, t_count, m0, s_terms


def _reference_verdict(s, k, loops, assume_exact):
    if loops:
        return s.n == 2 * k, None
    sigma, t_count, m0, s_terms = _reference_breakdown(s, assume_exact)
    delta = s_terms + (sigma + t_count + m0)
    return delta == 2 * k + 1 - s.n, delta


def _outcome(fn, *args):
    """A result, or the type of the exception that took its place."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome compared
        return "raised", type(exc)


_OFFSETS = [0.0, 1e-15, 1e-12, 5e-9, 1e-8, 1e-7, 1e-6, 2e-6, 1e-3, 0.3, 0.5, 0.7]
_RADII = [0.0, 1e-12, 1e-9, 1e-8, 5e-7, APPROX_RADIUS_CAP, 1.5 * APPROX_RADIUS_CAP,
          1e-3, 0.2, 0.5, 0.6]
_branch_point_intervals = st.builds(
    lambda c, off, sign, r: Eig.from_approx(c + sign * off, r),
    st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from(_OFFSETS),
    st.sampled_from([-1, 1]), st.sampled_from(_RADII))
_any_intervals = st.builds(Eig.from_approx, st.floats(-3, 3), st.sampled_from(_RADII))
_branch_eigs = st.one_of(_exact_values.map(Eig.from_exact), _branch_point_intervals,
                         _any_intervals)
_branch_entry_lists = st.lists(st.tuples(_branch_eigs, st.integers(1, 4)),
                               min_size=1, max_size=12)


@settings(max_examples=400, deadline=None)
@given(_branch_eigs, st.booleans())
def test_delta_of_matches_the_former_rules(eig, assume_exact):
    assert _outcome(delta_of, eig, assume_exact) == _outcome(_reference_delta_of, eig,
                                                              assume_exact)


def _breakdown(s, assume_exact):
    b = discrepancy(s, assume_exact=assume_exact)
    return b.sigma, b.T, b.m0, b.S


def _verdict(s, k, loops, assume_exact):
    report = check_equienergetic(s, k, loops=loops, assume_exact=assume_exact)
    return report.equal, report.delta


@settings(max_examples=400, deadline=None)
@given(_branch_entry_lists, st.booleans(), st.booleans(), st.data())
def test_discrepancy_and_verdict_match_the_former_rules(entries, assume_exact, loops, data):
    principal = data.draw(st.integers(0, len(Spectrum(entries).entries) - 1))
    s = Spectrum(entries, principal=principal)
    k = data.draw(st.integers(0, s.n))
    assert _outcome(_breakdown, s, assume_exact) == _outcome(_reference_breakdown, s,
                                                              assume_exact)
    assert (_outcome(_verdict, s, k, loops, assume_exact)
            == _outcome(_reference_verdict, s, k, loops, assume_exact))


def test_delta_refuses_an_interval_wider_than_the_cap():
    clear = Eig.from_approx(2.5, 2 * APPROX_RADIUS_CAP)
    with pytest.raises(UncertifiableBranch, match="cap"):
        delta_of(clear)
    assert delta_of(clear, assume_exact=True) == ExactValue.from_rational(1)
    assert delta_branch(Eig.from_approx(2.5, APPROX_RADIUS_CAP)) == "sigma+"


@pytest.mark.parametrize("eig, branch", [
    (Eig.from_exact(1), "sigma+"), (Eig.from_exact(-1), "sigma-"), (Eig.from_exact(0), "m0"),
    (Eig.from_exact(Fraction(1, 2)), "T"), (Eig.from_exact(Fraction(-1, 2)), "S"),
    (Eig.from_approx(1 - 1e-12, 1e-8), "sigma+"), (Eig.from_approx(0.5, 1e-8), "T"),
    (Eig.from_approx(0.0, 0.0), "m0"), (Eig.from_approx(-1 - 1e-7, 1e-8), "sigma-"),
])
def test_delta_branch_labels(eig, branch):
    assert delta_branch(eig) == branch


# -- Spectrum equality against the former entrywise loop ---------------------------


def _reference_spectrum_eq(a, b):
    if a.n != b.n or len(a.entries) != len(b.entries):
        return False
    for (e1, m1), (e2, m2) in zip(a.entries, b.entries):
        if m1 != m2:
            return False
        if (e1.exact is None) != (e2.exact is None):
            return False
        if e1.exact is not None:
            if e1.exact != e2.exact:
                return False
        elif (e1.value, e1.radius) != (e2.value, e2.radius):
            return False
    return True


def _rebuilt(eig):
    """An equal Eig built afresh, so equality cannot lean on identity."""
    if eig.exact is not None:
        return Eig.from_exact(Surd(eig.exact.a, eig.exact.b, eig.exact.d))
    return Eig.from_approx(eig.value, eig.radius)


@settings(max_examples=300, deadline=None)
@given(_branch_entry_lists, st.data())
def test_spectrum_eq_matches_the_former_loop(entries, data):
    rebuilt = [(_rebuilt(e), m) for e, m in entries]
    other = data.draw(st.one_of(st.just(rebuilt), st.permutations(rebuilt),
                                _branch_entry_lists))
    a, b = Spectrum(entries), Spectrum(other)
    assert (a == b) == _reference_spectrum_eq(a, b)
    assert (a == Spectrum(rebuilt)) == _reference_spectrum_eq(a, Spectrum(rebuilt))


# -- the integral view against the generic exact path ------------------------------


def _assert_integral_route_matches(s, k, loops):
    """Every consumer of ``s.integral`` against ``generic_exact_route``."""
    values = [(Surd(x), m) for x, m in s.integral]
    assert [(e.exact, e.value, m) for e, m in s.entries] == [(x, float(x), m) for x, m in values]
    want = generic_exact_route(values, s.principal, k, loops)
    b = discrepancy(s)
    assert (b.sigma, b.T, b.m0, b.S, b.delta_total) == tuple(
        want[f] for f in ("sigma", "T", "m0", "S", "delta_total"))
    assert energy(s) == want["energy"]
    c = complement_spectrum(s, k, loops=loops)
    assert [(e.exact, m) for e, m in c.entries] == want["complement"]
    assert c.integral == tuple((int(y.a), m) for y, m in want["complement"])
    assert c.principal == want["complement_principal"] and c.n == s.n
    report = check_equienergetic(s, k, loops=loops)
    assert report.delta == (None if loops else want["delta_total"])
    assert (report.equal, report.energy, report.energy_complement, report.routes_agree) == (
        want["equal"], want["energy"], want["energy_complement"], want["routes_agree"])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 4)), max_size=10),
       st.lists(st.integers(1, 3), min_size=3, max_size=3), st.booleans(), st.data())
def test_integral_view_matches_the_generic_exact_path(extra, unit_mults, loops, data):
    # 0, -1 and 1 sit at the branch points; the principal may repeat
    pairs = list(zip((0, -1, 1), unit_mults)) + extra
    counts: dict[int, int] = {}
    for x, m in pairs:
        counts[x] = counts.get(x, 0) + m
    degree = data.draw(st.sampled_from(sorted(counts)))
    repeat = data.draw(st.integers(0, 2))
    if repeat:
        pairs.append((degree, repeat))
        counts[degree] += repeat
    s = Spectrum(pairs, principal_value=degree)
    assert s.integral == tuple(sorted(counts.items(), reverse=True))
    assert s.principal_eig.exact == degree
    k = data.draw(st.integers(0, s.n - 1))
    _assert_integral_route_matches(s, k, loops)


def test_integral_view_matches_the_generic_exact_path_on_unitary_spectra():
    from equigraph.rings import profiles_with_order_up_to, unitary_spectrum
    for factors in range(1, 5):
        for profile in profiles_with_order_up_to(factors, 256):
            s = unitary_spectrum(profile)
            _assert_integral_route_matches(s, profile.units, loops=False)


def test_integral_view_is_set_exactly_when_every_entry_is_an_integer():
    assert spec([(Surd(3), 1), (Surd(-1), 3)]).integral == ((3, 1), (-1, 3))
    assert spec([(3, 1), (Fraction(-1, 2), 2), (-2, 1)]).integral is None
    assert spec([(2, 1), (Surd(0, 1, 2), 1), (Surd(0, -1, 2), 1)]).integral is None
    approx = Spectrum([(Eig.from_exact(2), 1), (Eig.from_approx(-2.0, 0.0), 1)])
    assert approx.integral is None
