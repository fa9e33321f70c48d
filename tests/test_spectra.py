import json
import math
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
from equigraph.spectra import _agree, _energies_consistent, _sp_prime

from oracles import delta_of, generic_exact_route, read_spectrum_json


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
    exact = Spectrum([(2, 1), (0, 2), (-2, 1)])
    approx = Spectrum([(Eig.from_exact(2), 1), (Eig.from_approx(-5e-9, 1e-8), 2),
                       (Eig.from_exact(-2), 1)])
    assert check_equienergetic(exact, k=2).equal
    assert check_equienergetic(approx, k=2, assume_exact=True).equal


# -- discrepancy ----------------------------------------------------------

def test_discrepancy_crown3():
    s = Spectrum([(2, 1), (1, 2), (-1, 2), (-2, 1)])
    b = discrepancy(s)
    assert b.delta_total == ExactValue.from_rational(-1)
    assert (b.sigma, b.T, b.m0) == (-1, 0, 0)
    assert b.S == ExactValue()


def test_discrepancy_complete_bipartite():
    t = 3
    s = Spectrum([(t, 1), (0, 2 * t - 2), (-t, 1)])
    b = discrepancy(s)
    assert b.delta_total == ExactValue.from_rational(b.m0 - 1)
    assert b.delta_total == ExactValue.from_rational(3)


def test_discrepancy_complete_multipartite():
    a, m = 3, 2
    s = Spectrum([((a - 1) * m, 1), (0, a * (m - 1)), (-m, a - 1)])
    b = discrepancy(s)
    assert b.delta_total == ExactValue.from_rational(a * m - 2 * a + 1)
    assert b.delta_total == ExactValue.from_rational(1)
    assert b.delta_total == ExactValue.from_rational(b.m0 + b.sigma)


def test_sp_prime_removes_single_copy_of_repeated_principal():
    # Cr(2) = 2K_2 has principal eigenvalue 1 with multiplicity 2
    s = Spectrum([(1, 2), (-1, 2)])
    b = discrepancy(s)
    # Sp' = {1, -1, -1}: sigma = 1 - 2 = -1
    assert b.sigma == -1
    assert b.delta_total == ExactValue.from_rational(-1)


# -- energy ----------------------------------------------------------------

def test_energy_examples():
    q3 = Spectrum([(3, 1), (1, 3), (-1, 3), (-3, 1)])
    assert energy(q3) == ExactValue.from_rational(12)
    prism = Spectrum([(3, 1), (1, 1), (0, 2), (-2, 2)])
    assert energy(prism) == ExactValue.from_rational(8)
    shrikhande = Spectrum([(6, 1), (2, 6), (-2, 9)])
    assert energy(shrikhande) == ExactValue.from_rational(36)


def test_energy_of_integers_beyond_the_float_range_stays_exact():
    big = 2 ** 1100
    s = Spectrum([(big, 1), (1, 2), (-big, 1)])
    assert energy(s) == ExactValue.from_rational(2 * big + 2)
    report = check_equienergetic(s, k=big)
    assert report.delta == ExactValue.from_rational(1)
    assert report.energy_complement == ExactValue.from_rational(2 * big)


def test_energy_interval_for_approx_entries():
    s = Spectrum([(Eig.from_approx(2.4494897, 1e-8), 2),
                  (Eig.from_exact(3), 1),
                  (Eig.from_exact(-3), 1)])
    e = energy(s)
    assert type(e) is Eig
    assert e.radius == pytest.approx(2e-8)
    assert e.value == pytest.approx(6 + 2 * 2.4494897)


# -- complement ---------------------------------------------------------------

def test_complement_crown2_gives_c4():
    cr2 = Spectrum([(1, 2), (-1, 2)])
    c4 = complement_spectrum(cr2, k=1)
    assert c4 == Spectrum([(2, 1), (0, 2), (-2, 1)])


def test_complement_ktt_gives_2kt():
    t = 2
    ktt = Spectrum([(t, 1), (0, 2 * t - 2), (-t, 1)])
    got = complement_spectrum(ktt, k=t)
    assert got == Spectrum([(t - 1, 2), (-1, 2 * t - 2)])


def test_complement_is_involution():
    samples = [
        Spectrum([(3, 1), (1, 5), (-2, 4)]),
        Spectrum([(4, 1), (1, 2), (0, 3), (-2, 1), (-1, 3)]),
        Spectrum([(2, 1), (Surd(Fraction(-1, 2), Fraction(1, 2), 5), 2),
                  (Surd(Fraction(-1, 2), Fraction(-1, 2), 5), 2)]),
    ]
    for s in samples:
        k = s.values[0][0]
        back = complement_spectrum(complement_spectrum(s, k), s.n - k - 1)
        assert back == s


def test_complement_with_loops_negates():
    # J - A of a 2-regular spectrum on 4 vertices: degree 4 - 2 = 2 joins
    # the negated -2, so the first value, the degree, has multiplicity 2
    s = Spectrum([(2, 1), (0, 2), (-2, 1)])
    got = complement_spectrum(s, k=2, loops=True)
    assert [(eig.exact, m) for eig, m in got.entries] == [(Surd(2), 2), (Surd(0), 2)]
    assert got.values == ((2, 2), (0, 2))


# -- equienergy check -----------------------------------------------------------

def test_check_q3_equal():
    q3 = Spectrum([(3, 1), (1, 3), (-1, 3), (-3, 1)])
    report = check_equienergetic(q3, k=3)
    assert report.equal
    assert report.energy == ExactValue.from_rational(12)
    assert report.energy_complement == ExactValue.from_rational(12)
    assert report.routes_agree


def test_check_k4_not_equal():
    k4 = Spectrum([(3, 1), (-1, 3)])
    report = check_equienergetic(k4, k=3)
    assert not report.equal
    assert report.delta == ExactValue.from_rational(-3)
    assert report.routes_agree


def test_check_petersen_not_equal():
    pet = Spectrum([(3, 1), (1, 5), (-2, 4)])
    report = check_equienergetic(pet, k=3)
    assert not report.equal
    assert report.routes_agree


def test_check_agrees_with_direct_energy_comparison():
    samples = [
        (Spectrum([(3, 1), (1, 3), (-1, 3), (-3, 1)]), 3),
        (Spectrum([(3, 1), (-1, 3)]), 3),
        (Spectrum([(3, 1), (1, 5), (-2, 4)]), 3),
        (Spectrum([(6, 1), (2, 6), (-2, 9)]), 6),
        (Spectrum([(4, 1), (0, 3), (-2, 2)]), 4),
        (Spectrum([(2, 1), (Surd(Fraction(-1, 2), Fraction(1, 2), 5), 2),
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
    witness = Spectrum([(3, 1), (Surd(1, 1, 2), 6), (2, 8), (Surd(1, -1, 2), 6), (-1, 7)])
    report = check_equienergetic(witness, k=3)
    assert not report.equal
    assert not report.delta.is_rational


def test_check_with_loops_uses_n_equals_2k():
    # E(A) = k + sum' |x| and E(J - A) = (n - k) + sum' |x|
    s = Spectrum([(2, 1), (0, 2), (-2, 1)])     # n=4, k=2
    report = check_equienergetic(s, k=2, loops=True)
    assert report.equal and report.routes_agree
    assert report.energy == report.energy_complement == ExactValue.from_rational(4)
    s5 = Spectrum([(2, 1), (1, 2), (-1, 1), (-2, 1)])  # n=5, k=2: 5 != 4
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
    assert s.to_json_dict()["principal"] == 0


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
    if (x.exact is None) != (y.exact is None):
        return -1 if x.exact is not None else 1
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


def test_spectrum_orders_float_ties_exactly_and_int_pairs_without_the_comparator(monkeypatch):
    calls = []
    original = Surd.compare

    def counted(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Surd, "compare", counted)
    surds = Spectrum([(Surd(10 ** 17), 1), (Surd(10 ** 17 + 1), 1), (Surd(5), 3)])
    assert [e.exact for e, _ in surds.entries] == [Surd(10 ** 17 + 1), Surd(10 ** 17), Surd(5)]
    # integer values merge and sort as ints, so even float ties need no comparator
    assert calls == [] and surds.values == ((10 ** 17 + 1, 1), (10 ** 17, 1), (5, 3))
    ints = Spectrum([(10 ** 17, 1), (10 ** 17 + 1, 1), (5, 3)])
    assert calls == [] and ints.values == surds.values


def test_mixed_spectrum_keeps_exact_entries_in_exact_order_at_a_float_tie():
    near = Eig.from_approx(1e17, 1e-9)
    for entries in ([(Eig.from_exact(10 ** 17), 1), (Eig.from_exact(10 ** 17 + 1), 1), (near, 1)],
                    [(near, 1), (Eig.from_exact(10 ** 17), 1), (Eig.from_exact(10 ** 17 + 1), 1)]):
        s = Spectrum(entries)
        assert [e.exact for e, _ in s.entries] == [Surd(10 ** 17 + 1), Surd(10 ** 17), None]
        assert s.values == ((10 ** 17 + 1, 1), (10 ** 17, 1), (near, 1))


def _reference_complement(s, k, loops):
    """The former two-step build: construct from Eigs, then merge and sort."""
    n = s.n
    degree = Surd(n - k if loops else n - k - 1)
    new_entries = [(Eig.from_exact(degree), 1)]
    for eig, mult in _sp_prime(s.entries):
        if eig.exact is not None:
            mapped = -eig.exact if loops else Surd(-1) + -eig.exact
            new_entries.append((Eig.from_exact(mapped), mult))
        else:
            v = -eig.value if loops else -1.0 - eig.value
            new_entries.append((Eig.from_approx(v, eig.radius), mult))
    return _reference_entries(new_entries)


@settings(max_examples=200, deadline=None)
@given(_entry_lists, st.booleans(), st.data())
def test_complement_single_build_matches_two_step(entries, loops, data):
    s = Spectrum(entries)
    k = data.draw(st.integers(0, max(0, s.n - 1)))
    got = complement_spectrum(s, k, loops=loops)
    assert _rows(got.entries) == _rows(_reference_complement(s, k, loops))
    assert got.n == s.n


def _reference_discrepancy(s):
    sigma = t_count = m0 = 0
    s_terms = ExactValue()
    for eig, mult in _sp_prime(s.entries):
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


def _reference_exact_branch(x):
    sign = x.sign()
    if sign == 0:
        return "m0"
    if sign > 0:
        return "sigma+" if x.compare(Surd(1)) >= 0 else "T"
    return "sigma-" if x.compare(Surd(-1)) <= 0 else "S"


def _reference_delta_of(x, assume_exact):
    if x.exact is not None:
        branch = _reference_exact_branch(x.exact)
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
    for eig, mult in _sp_prime(s.entries):
        if eig.exact is not None:
            branch = _reference_exact_branch(eig.exact)
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
_RADII = [0.0, 1e-12, 1e-9, 1e-8, 5e-7, 1e-6, 1.5e-6, 1e-3, 0.2, 0.5, 0.6]
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
    s = Spectrum(entries)
    k = data.draw(st.integers(0, s.n))
    assert _outcome(_breakdown, s, assume_exact) == _outcome(_reference_breakdown, s,
                                                              assume_exact)
    assert (_outcome(_verdict, s, k, loops, assume_exact)
            == _outcome(_reference_verdict, s, k, loops, assume_exact))


def _reference_energy(s):
    """The former energy: exact through ``exact_sum`` over every entry, or
    else a float sum in entry order with the radii added up."""
    if all(e.exact is not None for e, _ in s.entries):
        return exact_sum([(abs(e.exact), m) for e, m in s.entries])
    value = radius = 0.0
    for eig, mult in s.entries:
        if eig.exact is not None:
            value += abs(float(eig.exact)) * mult
        else:
            value += abs(eig.value) * mult
            radius += eig.radius * mult
    return Eig.from_approx(value, radius)


# spectrum values as the constructor takes them: ints, surds over several
# radicands, rationals, and intervals at -1, 0 and 1
_mixed_values = st.one_of(st.integers(-4, 4), _mixed_surds, _rationals.map(Surd),
                          _branch_point_intervals)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_mixed_values, st.integers(1, 4)), min_size=1, max_size=12),
       st.booleans(), st.booleans(), st.data())
def test_one_loop_consumers_match_the_references_on_mixed_values(values, assume_exact, loops,
                                                                  data):
    s = Spectrum(values)
    k = data.draw(st.integers(0, s.n))
    assert _outcome(_breakdown, s, assume_exact) == _outcome(_reference_breakdown, s,
                                                              assume_exact)
    assert (_outcome(_verdict, s, k, loops, assume_exact)
            == _outcome(_reference_verdict, s, k, loops, assume_exact))
    assert energy(s) == _reference_energy(s)
    got = complement_spectrum(s, k, loops=loops)
    assert _rows(got.entries) == _rows(_reference_complement(s, k, loops))
    assert got.n == s.n


def test_delta_decides_a_wide_interval_by_containment():
    # every value in [0, inf) adds +1 and every value in (-inf, -1] adds -1,
    # so containment fixes the term at any radius
    wide = Eig.from_approx(2.5, 2e-6)
    assert discrepancy(Spectrum([(3, 1), (wide, 1)])).delta_total == 1
    assert delta_of(wide) == delta_of(wide, assume_exact=True) == ExactValue.from_rational(1)
    assert delta_branch(Eig.from_approx(-2.5, 1.4)) == "sigma-"
    with pytest.raises(UncertifiableBranch, match="not certifiably clear"):
        delta_branch(Eig.from_approx(0.5, 0.6))


@pytest.mark.parametrize("eig, branch", [
    (Surd(1), "sigma+"), (Surd(-1), "sigma-"), (Surd(0), "m0"),
    (Surd(Fraction(1, 2)), "T"), (Surd(Fraction(-1, 2)), "S"),
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


# -- integer values against the generic exact path ---------------------------------


def _assert_integral_route_matches(s, k, loops):
    """Every consumer of an all-int ``s.values`` against ``generic_exact_route``."""
    values = [(Surd(x), m) for x, m in s.values]
    assert [(e.exact, e.value, m) for e, m in s.entries] == [(x, float(x), m) for x, m in values]
    want = generic_exact_route(values, k, loops)
    b = discrepancy(s)
    assert (b.sigma, b.T, b.m0, b.S, b.delta_total) == tuple(
        want[f] for f in ("sigma", "T", "m0", "S", "delta_total"))
    assert energy(s) == want["energy"]
    c = complement_spectrum(s, k, loops=loops)
    assert [(e.exact, m) for e, m in c.entries] == want["complement"]
    assert c.values == tuple((int(y.a), m) for y, m in want["complement"])
    assert c.n == s.n
    report = check_equienergetic(s, k, loops=loops)
    assert report.delta == (None if loops else want["delta_total"])
    assert (report.equal, report.energy, report.energy_complement, report.routes_agree) == (
        want["equal"], want["energy"], want["energy_complement"], want["routes_agree"])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 4)), max_size=10),
       st.lists(st.integers(1, 3), min_size=3, max_size=3), st.booleans(), st.data())
def test_integral_view_matches_the_generic_exact_path(extra, unit_mults, loops, data):
    # 0, -1 and 1 sit at the branch points; the degree, the largest value, may repeat
    pairs = list(zip((0, -1, 1), unit_mults)) + extra
    counts: dict[int, int] = {}
    for x, m in pairs:
        counts[x] = counts.get(x, 0) + m
    degree = max(counts)
    repeat = data.draw(st.integers(0, 2))
    if repeat:
        pairs.append((degree, repeat))
        counts[degree] += repeat
    s = Spectrum(pairs)
    assert s.values == tuple(sorted(counts.items(), reverse=True))
    assert s.values[0] == (degree, counts[degree])
    k = data.draw(st.integers(0, s.n - 1))
    _assert_integral_route_matches(s, k, loops)


def test_integral_view_matches_the_generic_exact_path_on_unitary_spectra():
    from equigraph.rings import profiles_with_order_up_to, unitary_spectrum
    for factors in range(1, 5):
        for profile in profiles_with_order_up_to(factors, 256):
            s = unitary_spectrum(profile)
            _assert_integral_route_matches(s, profile.units, loops=False)


def _value_types(s):
    return [type(x) for x, _ in s.values]


def test_integral_view_is_set_exactly_when_every_entry_is_an_integer():
    assert Spectrum([(Surd(3), 1), (Surd(-1), 3)]).values == ((3, 1), (-1, 3))
    assert _value_types(Spectrum([(3, 1), (Fraction(-1, 2), 2), (-2, 1)])) == [int, Surd, int]
    assert _value_types(Spectrum([(2, 1), (Surd(0, 1, 2), 1), (Surd(0, -1, 2), 1)])) == [
        int, Surd, Surd]
    approx = Spectrum([(Eig.from_exact(2), 1), (Eig.from_approx(-2.0, 0.0), 1)])
    assert _value_types(approx) == [int, Eig]


# -- int results of an all-int spectrum ----------------------------------------------


def _delta_reference(sp, branches=("sigma+", "sigma-", "m0", "T", "S")):
    """Sum of ``delta_of`` times multiplicity over the values of Sp' whose
    branch is one of ``branches``, through the generic constructor."""
    return ExactValue([(d, c * m) for x, m in sp if delta_branch(x) in branches
                       for d, c in delta_of(x).terms])


def _surd(x):
    return x if type(x) is Surd else Surd(x)


_degree_and_rest = st.integers(0, 12).flatmap(lambda degree: st.tuples(
    st.just(degree),
    st.lists(st.tuples(st.integers(-12, degree), st.integers(1, 5)), max_size=10),
    st.integers(1, 3)))


@settings(max_examples=400, deadline=None)
@given(_degree_and_rest)
def test_all_int_spectra_give_int_energies_s_and_delta(drawn):
    degree, rest, degree_mult = drawn
    s = Spectrum([(degree, degree_mult), *rest])
    sp = [(Surd(x), m) for x, m in _sp_prime(s.values)]
    e = energy(s)
    assert type(e) is int and e == exact_sum([(abs(x), m) for x, m in s.values])
    b = discrepancy(s)
    assert type(b.S) is int and b.S == _delta_reference(sp, ("S",)) == 0
    assert type(b.delta_total) is int and b.delta_total == _delta_reference(sp)
    report = check_equienergetic(s, k=degree)
    complement = [(Surd(s.n - degree - 1), 1)] + [(Surd(-1 - x.a), m) for x, m in sp]
    assert type(report.delta) is int and report.delta == _delta_reference(sp)
    assert type(report.energy) is int and report.energy == e
    assert type(report.energy_complement) is int
    assert report.energy_complement == exact_sum([(abs(y), m) for y, m in complement])
    assert report.equal == (report.delta == 2 * degree + 1 - s.n)


# non-integer surds; the last strategy draws only values in (-1, 0), which feed S
_non_integer_surds = st.one_of(
    _mixed_surds,
    _rationals.filter(lambda q: q.denominator > 1).map(Surd),
    st.builds(lambda a, b: Surd(a, b, 2), st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2)]),
              st.sampled_from([-1, Fraction(-1, 2), Fraction(-3, 4)])
              ).filter(lambda x: -1 < float(x) < 0))


@settings(max_examples=400, deadline=None)
@given(_degree_and_rest, st.lists(st.tuples(_non_integer_surds, st.integers(1, 4)),
                                  min_size=1, max_size=4))
def test_a_non_integer_surd_keeps_exact_values(drawn, surds):
    degree, rest, degree_mult = drawn
    # a degree above every surd, so that the surds stay in Sp' and the complement
    degree = max(degree, *(math.floor(float(x)) + 1 for x, _ in surds))
    s = Spectrum([(degree, degree_mult), *rest, *surds])
    e = energy(s)
    assert type(e) is ExactValue
    assert e == exact_sum([(abs(_surd(x)), m) for x, m in s.values])
    sp = [(_surd(x), m) for x, m in _sp_prime(s.values)]
    b = discrepancy(s)
    on_s_branch = any(delta_branch(x) == "S" for x, _ in sp)
    assert type(b.S) is (ExactValue if on_s_branch else int)
    assert b.S == _delta_reference(sp, ("S",))
    assert b.delta_total == _delta_reference(sp)
    report = check_equienergetic(s, k=degree)
    assert type(report.energy) is ExactValue and type(report.energy_complement) is ExactValue


@settings(max_examples=200, deadline=None)
@given(_degree_and_rest, st.floats(-20, -1.5), st.integers(1, 4))
def test_an_interval_keeps_an_interval_energy(drawn, value, mult):
    degree, rest, degree_mult = drawn
    s = Spectrum([(degree, degree_mult), *rest, (Eig.from_approx(value, 1e-9), mult)])
    assert type(energy(s)) is Eig
    report = check_equienergetic(s, k=degree)
    assert type(report.energy) is Eig and type(report.energy_complement) is Eig


_LAZY_READERS = {
    "entries": lambda s: s.entries,
    "hash": hash,
    "to_json_dict": lambda s: s.to_json_dict(),
    "repr": repr,
}


def _assert_lazy_entries_match(pairs):
    """``Spectrum(pairs)`` builds no Eig, and its lazily built entries equal
    the eagerly merged and sorted ``(Eig, mult)`` entries of the former
    constructor; so does every reader of them."""
    eig_pairs = [(x if type(x) is Eig else Eig.from_exact(x), m) for x, m in pairs]
    eigs = Spectrum(eig_pairs)
    calls = []
    original = Eig.from_exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Eig, "from_exact", lambda x: calls.append(x) or original(x))
        built = Spectrum(pairs)
        assert built.values == eigs.values and calls == []
        # each reader is the first to read the entries of a spectrum of its own
        for name, read in _LAZY_READERS.items():
            assert read(Spectrum(pairs)) == read(eigs), name
        assert built == eigs and eigs == built
        assert built.entries is built.entries
    assert _rows(built.entries) == _rows(_reference_entries(eig_pairs))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 18, 10 ** 18) | st.integers(-3, 3),
                          st.integers(1, 5)), min_size=1, max_size=12))
def test_lazy_integral_entries_equal_those_built_from_eigs(pairs):
    _assert_lazy_entries_match(pairs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-3, 3), _exact_values, _approx_eigs),
                          st.integers(1, 5)), min_size=1, max_size=12))
def test_lazy_entries_of_irrational_and_interval_spectra_equal_the_former_eager_ones(pairs):
    _assert_lazy_entries_match(pairs)


# -- the first value is the degree --------------------------------------------------


def _guard_passes(family, *args):
    try:
        G.FAMILIES[family].guard(*args)
    except ValueError:
        return False
    return True


# every gp pair with q < 1100 that has a closed form: k = 1 (K_q), k = 2 (Paley(q))
# and the semiprimitive pairs
_GP_CLOSED = [(k, q) for q in range(2, 1100) for k in range(1, q)
              if (q - 1) % k == 0 and _guard_passes("gp", k, q)
              and G.FAMILIES["gp"].spectrum(k, q) is not None]

# (family, parameter strategy, degree) for every family with a closed form
_CLOSED_FORMS = [
    ("crown", st.fixed_dictionaries({"t": st.integers(2, 300)}), lambda t: t - 1),
    ("cycle", st.fixed_dictionaries({"n": st.integers(3, 6)}), lambda n: 2),
    ("complete", st.fixed_dictionaries({"n": st.integers(1, 600)}), lambda n: n - 1),
    ("complete_bipartite", st.integers(1, 300).map(lambda a: {"a": a, "b": a}),
     lambda a, b: a),
    ("complete_multipartite",
     st.fixed_dictionaries({"a": st.integers(1, 40), "m": st.integers(1, 40)}),
     lambda a, m: (a - 1) * m),
    ("lattice", st.fixed_dictionaries({"n": st.integers(2, 300)}), lambda n: 2 * (n - 1)),
    ("triangular", st.fixed_dictionaries({"n": st.integers(4, 300)}), lambda n: 2 * (n - 2)),
    ("petersen", st.just({}), lambda: 3),
    ("shrikhande", st.just({}), lambda: 6),
    ("q3", st.just({}), lambda: 3),
    ("k3_prism", st.just({}), lambda: 3),
    ("paley", st.sampled_from([{"q": q} for k, q in _GP_CLOSED if k == 2]),
     lambda q: (q - 1) // 2),
    ("gp", st.sampled_from([{"k": k, "q": q} for k, q in _GP_CLOSED]),
     lambda k, q: (q - 1) // k),
]


def _assert_degree_first(s, k):
    """The first value of a k-regular spectrum is k, and that of its exact
    complement is the complement's degree n - k - 1."""
    assert s.values[0][0] == k
    assert complement_spectrum(s, k).values[0][0] == s.n - k - 1


def test_every_family_has_a_degree_strategy():
    assert [f for f, _, _ in _CLOSED_FORMS] == list(G.FAMILIES)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_closed_form_spectrum_starts_with_its_degree(data):
    family, params, degree = data.draw(st.sampled_from(_CLOSED_FORMS))
    drawn = data.draw(params)
    fam, args = G.family_args(family, drawn)
    s = fam.spectrum(*args)
    _assert_degree_first(s, degree(*args))
    assert G.spectral_regularity(s) == degree(*args)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([(2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (4, 1), (4, 4),
                                 (5, 1), (7, 1), (8, 1), (9, 1), (9, 9), (13, 1), (16, 1)]),
                min_size=1, max_size=6))
def test_every_unitary_spectrum_starts_with_its_degree(factors):
    from equigraph.rings import RingProfile, unitary_spectrum
    profile = RingProfile.of(*factors)
    _assert_degree_first(unitary_spectrum(profile), profile.units)


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 2500))
def test_every_theorem_tuple_spectrum_starts_with_its_degree(n):
    from equigraph.srg import spectrum_of, theorem_tuples
    for p in theorem_tuples(n):
        _assert_degree_first(spectrum_of(p), p.k)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 12).map(G.crown), st.integers(2, 5).map(G.lattice)),
       st.integers(0, 2 ** 32 - 1))
def test_every_relabelled_numeric_spectrum_starts_with_its_degree(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    s = G.numeric_spectrum(G.Graph(g.adj[np.ix_(perm, perm)]))
    first = s.values[0][0]
    assert abs(first.value - G.regularity(g)) <= first.radius


def _breakdown_fields(b):
    return b.sigma, b.T, b.m0, b.S, b.delta_total


def test_numeric_complement_with_an_interval_ahead_of_its_degree_keeps_the_discrepancy():
    # K_{3,3} as the eigensolver may report it, -3 a rounding error low: the
    # complement 2K_3 gets one copy of its degree 2 as an interval above 2
    numeric = Spectrum([(Eig.from_approx(3.0, 1e-8), 1), (Eig.from_approx(0.0, 1e-8), 4),
                        (Eig.from_approx(-3.0 - 4.4e-16, 1e-8), 1)])
    c = complement_spectrum(numeric, 3)
    assert type(c.values[0][0]) is Eig and c.values[0][0].value > 2 and c.values[1] == (2, 1)
    exact = complement_spectrum(Spectrum([(3, 1), (0, 4), (-3, 1)]), 3)
    assert exact.values[0] == (2, 2)
    assert _breakdown_fields(discrepancy(c, assume_exact=True)) == _breakdown_fields(
        discrepancy(exact))
    assert energy(c).value == pytest.approx(float(energy(exact)))


def test_relabelled_numeric_complements_keep_the_exact_discrepancy():
    from equigraph.data import exact_spectrum_of_family
    interval_first = 0
    for a, m in [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (6, 5)]:
        g = G.complete_multipartite(a, m)
        k = (a - 1) * m
        exact = complement_spectrum(
            exact_spectrum_of_family("complete_multipartite", a=a, m=m), k)
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(g.n)
            c = complement_spectrum(G.numeric_spectrum(G.Graph(g.adj[np.ix_(perm, perm)])), k)
            interval_first += type(c.values[0][0]) is Eig
            assert _breakdown_fields(discrepancy(c, assume_exact=True)) == _breakdown_fields(
                discrepancy(exact)), (a, m, seed)
    assert interval_first > 0


# -- the agreement rule: |x - y| within the sum of the certified radii --------------


def test_agreement_is_within_the_sum_of_both_radii():
    just_above = Surd(Fraction(math.nextafter(1.5, 2)))
    for x, y, agree in [
        (Eig.from_approx(1.0, 0.5), Surd(Fraction(3, 2)), True),   # |x - y| == radius
        (Eig.from_approx(1.0, 0.5), just_above, False),            # one ulp beyond it
        (Eig.from_approx(1.0, 0.25), Eig.from_approx(1.5, 0.25), True),
        (Eig.from_approx(1.0, 0.25), Eig.from_approx(math.nextafter(1.5, 2), 0.25), False),
        (Eig.from_approx(2.0, 0.0), 2, True),
        (Surd(0, 1, 2), Surd(0, 1, 2), True),
        # exact values agree only when equal, even where their floats tie
        (10 ** 17, 10 ** 17 + 1, False),
    ]:
        assert _agree(x, y) is agree and _agree(y, x) is agree, (x, y)
        one, other = Spectrum([(x, 1)]), Spectrum([(y, 1)])
        assert spectra_match(one, other) is agree and spectra_match(other, one) is agree


def test_energies_are_consistent_within_their_radii():
    e, touching = Eig.from_approx(10.0, 0.25), Eig.from_approx(10.5, 0.25)
    apart = Eig.from_approx(math.nextafter(10.5, 11), 0.25)
    assert _energies_consistent(True, e, touching) and _energies_consistent(True, touching, e)
    assert not _energies_consistent(True, e, apart) and not _energies_consistent(True, apart, e)
    # intervals cannot refute "not equal"
    assert _energies_consistent(False, e, touching) and _energies_consistent(False, e, apart)
    four = ExactValue.from_rational(4)
    assert _energies_consistent(True, four, 4) and not _energies_consistent(False, four, 4)
    assert _energies_consistent(False, 4, 5) and not _energies_consistent(True, 4, 5)


# families small enough to solve numerically in a test, each with its closed form
_SMALL_FAMILIES = st.one_of(
    st.builds(lambda t: ("crown", {"t": t}), st.integers(2, 12)),
    st.builds(lambda n: ("cycle", {"n": n}), st.integers(3, 6)),
    st.builds(lambda n: ("complete", {"n": n}), st.integers(2, 16)),
    st.builds(lambda a, b: ("complete_bipartite", {"a": a, "b": b}),
              st.integers(1, 6), st.integers(1, 6)),
    st.builds(lambda a, m: ("complete_multipartite", {"a": a, "m": m}),
              st.integers(2, 5), st.integers(1, 5)),
    st.builds(lambda n: ("lattice", {"n": n}), st.integers(2, 5)),
    st.builds(lambda n: ("triangular", {"n": n}), st.integers(4, 8)),
    st.sampled_from([("petersen", {}), ("shrikhande", {}), ("q3", {}), ("k3_prism", {})]),
    st.sampled_from([("gp", {"k": k, "q": q}) for k, q in _GP_CLOSED if q <= 40]),
)


@settings(max_examples=100, deadline=None)
@given(_SMALL_FAMILIES, st.integers(0, 2 ** 32 - 1), st.data())
def test_spectra_match_accepts_relabelled_families_and_rejects_their_mutations(drawn, seed,
                                                                                 data):
    fam, args = G.family_args(*drawn)
    g, closed = fam.build(*args), fam.spectrum(*args)
    perm = np.random.default_rng(seed).permutation(g.n)
    numeric = G.numeric_spectrum(G.Graph(g.adj[np.ix_(perm, perm)]))
    assert spectra_match(numeric, closed) and spectra_match(closed, numeric)

    # one value moved by twice its entry's radius
    values = list(numeric.values)
    i = data.draw(st.integers(0, len(values) - 1))
    (y, mult), sign = values[i], data.draw(st.sampled_from([-1, 1]))
    values[i] = (Eig.from_approx(y.value + sign * 2 * y.radius, y.radius), mult)
    moved = Spectrum(values)
    assert not spectra_match(moved, closed) and not spectra_match(closed, moved)

    # one multiplicity off by one, alone or with another's changed to keep n
    exact = list(closed.values)
    j = data.draw(st.integers(0, len(exact) - 1))
    bumped = exact.copy()
    bumped[j] = (bumped[j][0], bumped[j][1] + 1)
    assert not spectra_match(numeric, Spectrum(bumped))
    if len(exact) > 1:
        other = data.draw(st.integers(0, len(exact) - 1).filter(lambda l: l != j))
        bumped[other] = (bumped[other][0], bumped[other][1] - 1)
        shifted = Spectrum([(x, m) for x, m in bumped if m])
        assert shifted.n == numeric.n
        assert not spectra_match(numeric, shifted) and not spectra_match(shifted, numeric)
