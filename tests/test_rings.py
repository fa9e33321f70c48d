from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equigraph.exact import ExactValue, Surd, exact_sum
from equigraph.fields import is_prime_power
from equigraph.graphs import numeric_spectrum, unitary_cayley_concrete
from equigraph.rings import (
    RingProfile,
    _subset_products,
    equien_check,
    profiles_with_order_up_to,
    search_field_products,
    subset_sums,
    unitary_spectrum,
)
from equigraph.spectra import Spectrum, check_equienergetic, energy, spectra_match


def test_profile_validation():
    RingProfile.of((4, 2))          # F_4-residue local ring of order 8
    RingProfile.of((2, 2))          # Z_4
    with pytest.raises(ValueError):
        RingProfile.of((6, 1))      # 6 is not a prime power
    with pytest.raises(ValueError):
        RingProfile.of((4, 3))      # ideal size has the wrong characteristic
    with pytest.raises(ValueError):
        RingProfile(())
    for m in (0, -3):               # m = 0 used to strip factors of p forever
        with pytest.raises(ValueError, match=f"ideal size {m} must be at least 1"):
            RingProfile.of((3, m))


def test_profile_parse_round_trip():
    p = RingProfile.parse("3:1,5:1,5:1")
    assert p.factors == ((3, 1), (5, 1), (5, 1))
    assert str(p) == "3:1,5:1,5:1"
    assert p.order == 75 and p.units == 32


def test_unitary_spectrum_field_is_complete_graph():
    spec = unitary_spectrum(RingProfile.of((5, 1)))
    assert spec == Spectrum.from_values([(4, 1), (-1, 4)])


def test_unitary_spectrum_z4():
    spec = unitary_spectrum(RingProfile.of((2, 2)))
    assert spec == Spectrum.from_values([(2, 1), (0, 2), (-2, 1)])


def test_unitary_spectrum_two_fields_no_zero():
    spec = unitary_spectrum(RingProfile.of((3, 1), (4, 1)))
    assert all(eig.exact != 0 for eig, _ in spec.entries)
    assert spec.n == 12
    assert spec == Spectrum.from_values([(6, 1), (-2, 3), (-3, 2), (1, 6)])


def test_unitary_spectrum_merges_coinciding_eigenvalues():
    # F_2 x F_2: lambda for both singletons is -2/1 = -2 twice
    spec = unitary_spectrum(RingProfile.of((2, 1), (2, 1)))
    assert spec == Spectrum.from_values([(1, 1), (-1, 2), (1, 1)])


def test_unitary_spectrum_total_multiplicity_random_profiles():
    import random
    rng = random.Random(5)
    pool = [(2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 2), (5, 1), (5, 5), (7, 1), (8, 2), (9, 3)]
    for _ in range(60):
        s = rng.randint(1, 6)
        profile = RingProfile.of(*(rng.choice(pool) for _ in range(s)))
        spec = unitary_spectrum(profile)
        assert spec.n == profile.order
        total = ExactValue()
        for eig, mult in spec.entries:
            total = total + exact_sum([(eig.exact, mult)])
        assert total == ExactValue()  # trace of a loopless graph


def test_subset_sums_examples():
    sums = subset_sums(RingProfile.of((3, 1), (5, 1), (5, 1)))
    assert sums.S_o == 10 and sums.S_e == 32
    assert sums.full_product == 32
    one = subset_sums(RingProfile.of((9, 3)))
    assert one.S_e == 0 and one.S_o == 0
    two = subset_sums(RingProfile.of((3, 1), (7, 1)))
    assert two.S_e == 0 and two.S_o == 2 + 6


def test_equien_check_examples():
    assert equien_check(RingProfile.of((4, 1), (4, 1))).equal
    assert equien_check(RingProfile.of((3, 1), (5, 1), (5, 1))).equal
    assert equien_check(RingProfile.of((3, 1), (4, 1), (7, 1))).equal
    # any product of exactly two fields qualifies, equal sizes or not
    assert equien_check(RingProfile.of((3, 1), (3, 1))).equal
    assert equien_check(RingProfile.of((4, 1), (5, 1))).equal
    # two factors where one is not a field do not
    assert not equien_check(RingProfile.of((2, 2), (3, 1))).equal
    assert not equien_check(RingProfile.of((2, 2), (2, 2))).equal
    five = RingProfile.of(*([(4, 1)] * 5))
    assert not equien_check(five).equal


def test_equien_check_local_profiles():
    # a single local factor passes exactly when the ideal is as large as the field
    assert equien_check(RingProfile.of((2, 2))).equal      # Z_4
    assert equien_check(RingProfile.of((3, 3))).equal
    assert not equien_check(RingProfile.of((4, 2))).equal
    assert not equien_check(RingProfile.of((5, 1))).equal  # a field alone never passes
    assert not equien_check(RingProfile.of((2, 4))).equal


def test_routes_always_agree_on_sweep():
    for s in (1, 2, 3):
        for profile in profiles_with_order_up_to(s, 200):
            # equien_check raises when its closed route disagrees
            delta_route = check_equienergetic(unitary_spectrum(profile), k=profile.units)
            assert equien_check(profile).equal == delta_route.equal


def test_even_sweep_hits_exactly_two_field_profiles():
    hits = []
    for s in (2, 4):
        for profile in profiles_with_order_up_to(s, 600):
            if equien_check(profile).equal:
                hits.append(profile)
    assert hits
    for profile in hits:
        assert profile.s == 2 and profile.is_field_product()


def test_search_field_products_small():
    got = search_field_products(3, 16)
    assert (3, 5, 5) in got
    assert (4, 4, 4) in got
    # the unit-fraction identity 1/2 + 1/3 + 1/6 = 1 gives a third solution
    # with all entries prime powers
    assert (3, 4, 7) in got
    assert got == [(3, 4, 7), (3, 5, 5), (4, 4, 4)]


def test_search_field_products_bound_filtering():
    got = search_field_products(3, 4)
    assert got == [(4, 4, 4)]


def test_search_equal_fields_s5_empty():
    got = search_field_products(5, 512)
    equal_field_hits = [t for t in got if len(set(t)) == 1]
    assert equal_field_hits == []


def test_third_product_verified_concretely():
    # F_3 x F_4 x F_7 is complementary equienergetic: E = 288 on both sides
    profile = RingProfile.of((3, 1), (4, 1), (7, 1))
    spec = unitary_spectrum(profile)
    assert energy(spec) == ExactValue.from_rational(288)
    from equigraph.spectra import complement_spectrum
    comp = complement_spectrum(spec, k=profile.units)
    assert energy(comp) == ExactValue.from_rational(288)
    concrete = unitary_cayley_concrete(["F3", "F4", "F7"])
    assert spectra_match(numeric_spectrum(concrete), spec)


def test_concrete_vs_parameter_agreement():
    cases = [
        ((["F2"]), RingProfile.of((2, 1))),
        ((["F5"]), RingProfile.of((5, 1))),
        ((["Z4"]), RingProfile.of((2, 2))),
        ((["Z8"]), RingProfile.of((2, 4))),
        ((["Z9"]), RingProfile.of((3, 3))),
        ((["F4", "F4"]), RingProfile.of((4, 1), (4, 1))),
        ((["F3", "F5", "F5"]), RingProfile.of((3, 1), (5, 1), (5, 1))),
        ((["Z4", "F3"]), RingProfile.of((2, 2), (3, 1))),
        ((["Z4", "Z4"]), RingProfile.of((2, 2), (2, 2))),
        ((["F9", "F2"]), RingProfile.of((9, 1), (2, 1))),
        ((["Z27", "F4"]), RingProfile.of((3, 9), (4, 1))),
        ((["F16", "F16"]), RingProfile.of((16, 1), (16, 1))),
        ((["Z125", "F2"]), RingProfile.of((5, 25), (2, 1))),
    ]
    for factors, profile in cases:
        concrete = unitary_cayley_concrete(factors)
        assert concrete.n == profile.order
        assert spectra_match(numeric_spectrum(concrete), unitary_spectrum(profile))


def test_search_input_validation():
    with pytest.raises(ValueError):
        search_field_products(4, 16)
    with pytest.raises(ValueError):
        search_field_products(9, 16)
    with pytest.raises(ValueError):
        search_field_products(3, 1000)


# -- the subset-product helper against brute-force mask enumeration -----------------

def _masks(s):
    """Every subset of range(s) as a tuple of indices."""
    return [tuple(i for i in range(s) if mask >> i & 1) for mask in range(1 << s)]


_DESCRIPTORS = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (4, 1), (4, 2), (5, 1), (5, 5),
                (7, 1), (8, 1), (8, 2), (9, 1), (9, 3), (11, 1), (13, 1), (16, 1)]
_profiles = st.lists(st.sampled_from(_DESCRIPTORS), min_size=1, max_size=7).map(
    lambda fs: RingProfile.of(*fs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 15), max_size=8))
def test_subset_products_match_masks(xs):
    want = {}
    for c in _masks(len(xs)):
        key = (-1) ** len(c) * prod(xs[i] for i in c)
        want[key] = want.get(key, 0) + 1
    assert _subset_products(xs) == want


@settings(max_examples=150, deadline=None)
@given(_profiles)
def test_unitary_spectrum_matches_masks(profile):
    qs = [q for q, _ in profile.factors]
    want = {}
    for c in _masks(profile.s):
        p_c = prod(qs[i] - 1 for i in c)
        lam = (-1) ** len(c) * (profile.units // p_c)
        want[lam] = want.get(lam, 0) + p_c
    if profile.order > prod(qs):
        want[0] = want.get(0, 0) + profile.order - prod(qs)
    spec = unitary_spectrum(profile)
    assert {int(e.exact.a): m for e, m in spec.entries} == want
    values = [e.exact for e, _ in spec.entries]
    assert values == sorted(values, reverse=True)
    assert spec.principal_eig.exact == Surd(profile.units)
    assert spec.principal == values.index(Surd(profile.units))


@settings(max_examples=150, deadline=None)
@given(_profiles)
def test_subset_sums_match_masks(profile):
    s = profile.s
    xs = [q - 1 for q, _ in profile.factors]
    even = sum(prod(xs[i] for i in c) for c in _masks(s) if len(c) % 2 == 0 and 0 < len(c) < s)
    odd = sum(prod(xs[i] for i in c) for c in _masks(s) if len(c) % 2 == 1 and len(c) < s)
    sums = subset_sums(profile)
    assert (sums.S_e, sums.S_o, sums.full_product) == (even, odd, prod(xs))


def _odd_reciprocal_sum_by_masks(qs):
    s = len(qs)
    return sum(Fraction(1, prod(qs[i] - 1 for i in c))
               for c in _masks(s) if len(c) % 2 == 1 and len(c) < s)


@pytest.mark.parametrize("s, q_max", [(3, 32), (5, 37)])
def test_search_field_products_matches_masks(s, q_max):
    qs = [q for q in range(3, q_max + 1) if is_prime_power(q)]
    want = [t for t in combinations_with_replacement(qs, s)
            if _odd_reciprocal_sum_by_masks(t) == 1
            and equien_check(RingProfile.of(*[(q, 1) for q in t])).equal]
    assert search_field_products(s, q_max) == want


def test_search_field_products_s3_q64():
    assert search_field_products(3, 64) == [(3, 4, 7), (3, 5, 5), (4, 4, 4)]
