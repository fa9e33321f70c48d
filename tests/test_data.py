from fractions import Fraction

import pytest

from equigraph.data import (
    DS_CONFERENCE,
    DS_NONCONFERENCE,
    MOORE_TUPLES,
    TABLE_DISTANCE_TRANSITIVE_CUBIC,
    TABLE_INTEGRAL_CUBIC,
    TRIANGLE_FREE_SPORADIC,
    bisect_root,
    ds_nonconference_params,
    exact_spectrum_of_family,
)
from equigraph.exact import ExactValue, Surd
from equigraph.graphs import gen_named, numeric_spectrum, regularity, spectral_regularity
from equigraph.spectra import Spectrum, spectra_match
from equigraph.srg import eigen_data


def eig_float(eig):
    return float(eig.exact) if eig.exact is not None else eig.value


def check_trace_identities(row):
    total = sum(eig_float(e) * m for e, m in row.spectrum.entries)
    squares = sum(eig_float(e) ** 2 * m for e, m in row.spectrum.entries)
    assert abs(total) < 1e-6, row.name
    assert abs(squares - row.n * row.k) < 1e-5, row.name


@pytest.mark.parametrize("row", TABLE_INTEGRAL_CUBIC, ids=lambda r: r.name)
def test_integral_cubic_rows_consistent(row):
    assert row.spectrum.n == row.n
    check_trace_identities(row)
    assert row.spectrum.values[0][0] == row.k


@pytest.mark.parametrize("row", TABLE_DISTANCE_TRANSITIVE_CUBIC, ids=lambda r: r.name)
def test_distance_transitive_rows_consistent(row):
    assert row.spectrum.n == row.n
    check_trace_identities(row)


@pytest.mark.parametrize(
    "row",
    [r for r in TABLE_INTEGRAL_CUBIC + TABLE_DISTANCE_TRANSITIVE_CUBIC if r.build],
    ids=lambda r: r.name,
)
def test_constructible_rows_match_numeric(row):
    g = row.build()
    assert g.n == row.n
    assert regularity(g) == row.k
    assert spectra_match(numeric_spectrum(g), row.spectrum)


def test_table_sizes():
    assert len(TABLE_INTEGRAL_CUBIC) == 13
    assert len(TABLE_DISTANCE_TRANSITIVE_CUBIC) == 13
    assert len(DS_NONCONFERENCE) == 14
    assert len(DS_CONFERENCE) == 3
    assert len(MOORE_TUPLES) == 4
    assert len(TRIANGLE_FREE_SPORADIC) == 4


@pytest.mark.parametrize("row", DS_NONCONFERENCE, ids=lambda r: r[-1])
def test_ds_nonconference_rows_are_feasible(row):
    n, k, r, m_r, s, m_s, _name = row
    assert 1 + m_r + m_s == n
    assert k + r * m_r + s * m_s == 0
    p = ds_nonconference_params(row)
    data = eigen_data(p)
    assert (int(data.m_r), int(data.m_s)) == (m_r, m_s)
    assert float(data.r) == r and float(data.s) == s


def test_heawood_correction_against_fano_incidence():
    # the Heawood graph is the point-line incidence graph of the Fano plane
    from equigraph.graphs import Graph
    edges = []
    for i in range(7):
        line = {i % 7, (i + 1) % 7, (i + 3) % 7}
        for p in line:
            edges.append((p, 7 + i))
    heawood = Graph.from_edges(14, edges)
    assert regularity(heawood) == 3
    row = next(r for r in TABLE_DISTANCE_TRANSITIVE_CUBIC if r.name == "Heawood")
    assert spectra_match(numeric_spectrum(heawood), row.spectrum)


def test_coxeter_correction_satisfies_moment_identities():
    row = next(r for r in TABLE_DISTANCE_TRANSITIVE_CUBIC if r.name == "Coxeter")
    check_trace_identities(row)
    # girth 7: the fourth moment counts closed 4-walks, n * k * (2k - 1)
    fourth = sum(eig_float(e) ** 4 * m for e, m in row.spectrum.entries)
    assert abs(fourth - 28 * 3 * 5) < 1e-5


def test_bisect_root_golden():
    eig = bisect_root([-1, -1, 1], Fraction(1), Fraction(2))  # x^2 - x - 1
    assert abs(eig.value - 1.618033988749) < 1e-9
    assert eig.radius <= 1e-10
    with pytest.raises(ValueError):
        bisect_root([-1, -1, 1], Fraction(3), Fraction(4))


@pytest.mark.parametrize("lo, hi", [(1, 3), (-3, -1), (0, 2)])
def test_bisect_root_returns_a_root_it_hits_as_a_surd(lo, hi):
    # x^2 - 1 has its root at an endpoint of [1, 3] and [-3, -1], and at the
    # first midpoint of [0, 2]
    root = bisect_root([-1, 0, 1], Fraction(lo), Fraction(hi))
    assert type(root) is Surd and root == Surd(1 if hi > 0 else -1)
    assert Spectrum([(root, 2)]).values == ((1 if hi > 0 else -1, 2),)


def test_biggs_smith_row_intervals():
    # the cubic's roots are intervals; the quadratic's are exact surds
    row = next(r for r in TABLE_DISTANCE_TRANSITIVE_CUBIC if r.name == "Biggs-Smith")
    approx = [(e.value, m) for e, m in row.spectrum.entries if e.exact is None]
    assert len(approx) == 3
    values = sorted(v for v, _ in approx)
    expect = [-2.532, -1.347, 0.879]
    for got, want in zip(values, expect):
        assert abs(got - want) < 1e-3
    half = Fraction(1, 2)
    for root in (Surd(half, half, 17), Surd(half, -half, 17)):
        assert root * root == root + 4  # a root of x^2 - x - 4
        assert (root, 9) in row.spectrum.values


def test_mixed_radicand_catalog_spectra_keep_their_entry_order():
    rows = {r.name: r for r in TABLE_DISTANCE_TRANSITIVE_CUBIC}
    assert [(str(e), m) for e, m in rows["Tutte 12-cage"].spectrum.entries] == [
        ("3", 1), ("sqrt(6)", 21), ("sqrt(2)", 27), ("0", 28), ("-sqrt(2)", 27),
        ("-sqrt(6)", 21), ("-3", 1)]
    assert [(str(e), m) for e, m in rows["Foster"].spectrum.entries] == [
        ("3", 1), ("sqrt(6)", 12), ("2", 9), ("1", 18), ("0", 10), ("-1", 18), ("-2", 9),
        ("-sqrt(6)", 12), ("-3", 1)]
    assert [(str(e), m) for e, m in rows["Biggs-Smith"].spectrum.entries] == [
        ("3", 1), ("1/2 + 1/2*sqrt(17)", 9), ("2", 18),
        ("0.8793852415692527(+-1e-10)", 16), ("0", 17), ("-1.3472963553213049(+-1e-10)", 16),
        ("1/2 - 1/2*sqrt(17)", 9), ("-2.532088886218844(+-1e-10)", 16)]
    k23 = exact_spectrum_of_family("complete_bipartite", a=2, b=3)
    assert [(str(e), m) for e, m in k23.entries] == [("sqrt(6)", 1), ("0", 3), ("-sqrt(6)", 1)]


def test_exact_family_spectra_match_numeric():
    cases = [
        ("crown", {"t": 4}),
        ("complete", {"n": 6}),
        ("complete_bipartite", {"a": 2, "b": 5}),
        ("complete_multipartite", {"a": 3, "m": 2}),
        ("lattice", {"n": 5}),
        ("triangular", {"n": 6}),
        ("petersen", {}),
        ("shrikhande", {}),
        ("q3", {}),
        ("k3_prism", {}),
        ("paley", {"q": 13}),
        ("cycle", {"n": 6}),
        ("gp", {"k": 3, "q": 16}),
    ]
    for family, params in cases:
        exact = exact_spectrum_of_family(family, **params)
        assert exact is not None, family
        g = gen_named(family, **params)
        assert spectra_match(numeric_spectrum(g), exact), family


def test_exact_family_spectrum_unknown():
    assert exact_spectrum_of_family("cycle", n=9) is None


# every family's parameters over a range that includes the invalid values
FAMILY_GRID = {
    "crown": [{"t": t} for t in range(7)],
    "complete": [{"n": n} for n in range(7)],
    "complete_bipartite": [{"a": a, "b": b} for a in range(6) for b in range(6)],
    "complete_multipartite": [{"a": a, "m": m} for a in range(5) for m in range(5)],
    "lattice": [{"n": n} for n in range(8)],
    "triangular": [{"n": n} for n in range(10)],
    "cycle": [{"n": n} for n in range(10)],
    "paley": [{"q": q} for q in range(61)],
    "gp": [{"k": k, "q": q} for k in range(-1, 6) for q in range(2, 71)],
    "petersen": [{}],
    "shrikhande": [{}],
    "q3": [{}],
    "k3_prism": [{}],
}


@pytest.mark.parametrize("family", sorted(FAMILY_GRID))
def test_closed_forms_agree_with_the_built_graphs(family):
    for params in FAMILY_GRID[family]:
        try:
            graph = gen_named(family, **params)
        except ValueError:
            with pytest.raises(ValueError):
                exact_spectrum_of_family(family, **params)
            continue
        exact = exact_spectrum_of_family(family, **params)
        if exact is None:
            assert family in ("cycle", "gp"), params
            continue
        assert spectra_match(numeric_spectrum(graph), exact), params
        assert spectral_regularity(exact) == regularity(graph), params


def test_spectral_regularity_is_not_the_principal_eigenvalue():
    # K_{1,4} has the integer principal eigenvalue 2 but average degree 8/5
    star = exact_spectrum_of_family("complete_bipartite", a=1, b=4)
    assert star.values[0] == (2, 1)
    assert spectral_regularity(star) is None
    assert spectral_regularity(exact_spectrum_of_family("complete_multipartite", a=1, m=3)) == 0
    assert spectral_regularity(exact_spectrum_of_family("lattice", n=120)) == 238


def test_paley_spectrum_energy():
    spec = exact_spectrum_of_family("paley", q=5)
    from equigraph.spectra import energy
    assert energy(spec) == ExactValue([(1, 2), (5, 2)])


def test_integral_census_discrepancy_specializations():
    # integral spectra: total = m0 + sigma; bipartite integral: total = m0 - 1
    from equigraph.spectra import discrepancy
    for row in TABLE_INTEGRAL_CUBIC:
        mults = {eig.exact: m for eig, m in row.spectrum.entries}
        assert all(x is not None and x.is_integer for x in mults)
        b = discrepancy(row.spectrum)
        assert b.delta_total == ExactValue.from_rational(b.m0 + b.sigma)
        if row.bipartite:
            # a bipartite spectrum is symmetric about 0
            assert all(mults.get(-x) == m for x, m in mults.items())
            assert b.delta_total == ExactValue.from_rational(b.m0 - 1)
