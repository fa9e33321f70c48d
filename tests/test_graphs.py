import json
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equigraph.exact import TRIAL_DIVISION_MAX, squarefree_decompose
from equigraph.fields import GF, is_prime_power, prime_power_decompose
from equigraph.graphs import (
    MAX_EIGEN_N,
    NUMERIC_RADIUS,
    Graph,
    cayley,
    cartesian,
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    crown,
    cube_q3,
    cycle,
    gen_named,
    gp_graph,
    is_bipartite,
    kronecker,
    lattice,
    line_graph,
    numeric_spectrum,
    paley,
    petersen,
    prism_k3,
    read_graph,
    regularity,
    shrikhande,
    triangular,
    unitary_cayley_concrete,
)
from equigraph import graphs, jacobi
from equigraph.jacobi import JacobiConvergenceError, JacobiResult, jacobi_eigenvalues
from equigraph.spectra import Spectrum, spectra_match

from oracles import (is_isospectral, multiplicative_order, srg_counts, tridiagonalize_reference,
                     write_graph)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import GRAPHS_REF, decode_adjacency


# -- fields ------------------------------------------------------------------

def test_prime_power_decompose():
    assert prime_power_decompose(64) == (2, 6)
    assert prime_power_decompose(81) == (3, 4)
    assert prime_power_decompose(7) == (7, 1)
    assert prime_power_decompose(12) is None
    assert not is_prime_power(1)


def test_trial_division_refuses_arguments_above_its_bound():
    assert prime_power_decompose(999999999989) == (999999999989, 1)
    for decompose in (prime_power_decompose, squarefree_decompose):
        with pytest.raises(ValueError, match=f"trial-division bound {TRIAL_DIVISION_MAX}$"):
            decompose(TRIAL_DIVISION_MAX + 1)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 128])
def test_field_axioms_spotcheck(q):
    f = GF(q)
    rng = np.random.default_rng(q)
    xs = rng.integers(0, q, size=12)
    ys = rng.integers(0, q, size=12)
    zs = rng.integers(0, q, size=12)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(x, f.encode(-c for c in f.digits(x))) == 0
        if x:
            assert f.pow(x, q - 1) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 64])
def test_conway_moduli_are_primitive(q):
    # x must generate the multiplicative group when the table supplies the modulus
    f = GF(q)
    x = f.encode([0, 1] + [0] * (f.m - 2))
    assert multiplicative_order(f, x) == q - 1


def test_power_residues():
    f = GF(64)
    r3 = f.power_residues(3)
    assert len(r3) == 21
    f16 = GF(16)
    assert len(f16.power_residues(3)) == 5
    assert len(GF(5).power_residues(2)) == 2


def _generator_power_residues(f, k):
    """The former construction: every k-th power of the least generator of GF(q)*."""
    g = next(x for x in range(1, f.q) if multiplicative_order(f, x) == f.q - 1)
    exp = [1]
    for _ in range(f.q - 2):
        exp.append(f.mul(exp[-1], g))
    return frozenset(exp[i] for i in range(0, f.q - 1, k))


@pytest.mark.parametrize("q", [q for q in range(2, 129) if is_prime_power(q)])
def test_power_residues_match_the_generator_construction(q):
    f = GF(q)
    for k in range(1, q):
        if (q - 1) % k == 0:
            assert f.power_residues(k) == _generator_power_residues(f, k), k
    with pytest.raises(ValueError):
        f.power_residues(q)


# -- jacobi -------------------------------------------------------------------

def test_jacobi_against_lapack_random():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 10, 24, 40):
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2
        ours = jacobi_eigenvalues(m).values
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(ours - ref)) < 1e-9


def test_jacobi_refuses_a_matrix_that_is_not_exactly_symmetric():
    # allclose's default rtol let this through with a bound of about 4e-15,
    # although its eigenvalues are +-1.0000005
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]))


@pytest.mark.parametrize("m", [
    [[0.0, math.nan], [math.nan, 0.0]],         # NaN equals nothing, not even itself
    [[math.nan, 1.0], [1.0, 0.0]],
    [[0.0, 1.0], [math.nextafter(1.0, 2.0), 0.0]],
], ids=["nan-off-diagonal", "nan-diagonal", "one-ulp"])
def test_jacobi_refuses_nan_and_a_one_ulp_asymmetry(m):
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        jacobi_eigenvalues(np.array(m))


def test_jacobi_trivial_sizes():
    assert jacobi_eigenvalues(np.array([[5.0]])).values[0] == 5.0
    vals = jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])).values
    assert np.allclose(vals, [-1.0, 1.0])


def _random_adjacency(rng, n: int, density: float = 0.5) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < density, 1)
    return (upper | upper.T).astype(np.float64)


def _property_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        m = rng.normal(size=(n, n))
        return (m + m.T) / 2
    if kind == "adjacency":             # repeated eigenvalues
        return _random_adjacency(rng, n)
    if kind == "zero":                  # every column is already zero
        return np.zeros((n, n))
    if kind == "diagonal":
        return np.diag(rng.normal(size=n))
    # block-diagonal, so T splits: random symmetric blocks, or random
    # graphs with isolated vertices, then randomly relabelled
    m = np.zeros((n, n))
    start = 0
    while start < n:
        size = int(rng.integers(1, n - start + 1))
        if kind == "blocks":
            block = rng.normal(size=(size, size))
            block = (block + block.T) / 2
        else:
            block = _random_adjacency(rng, size, density=0.3)
        m[start:start + size, start:start + size] = block
        start += size
    p = rng.permutation(n)
    return m[np.ix_(p, p)]


def _assert_bound_covers_lapack(m: np.ndarray, *, absolute: bool = True) -> JacobiResult:
    """Every eigenvalue within ``off_norm + rounding`` of LAPACK's and, when
    ``absolute``, within 1e-9 of it, which no solver meets once eigenvalues
    reach about 1e6."""
    result = jacobi_eigenvalues(m)
    lapack = np.linalg.eigvalsh(m)
    assert np.all(np.abs(result.values - lapack) <= result.off_norm + result.rounding)
    if absolute:
        assert np.max(np.abs(result.values - lapack), initial=0.0) < 1e-9
    return result


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "adjacency", "zero", "diagonal", "blocks", "disconnected"]))
def test_jacobi_property_against_lapack(n, seed, kind):
    m = _property_matrix(kind, n, seed)
    result = _assert_bound_covers_lapack(m)
    # at most n - 2 column tails and n - 1 off-diagonals are dropped, each
    # at most eps * ||A||_F
    assert result.off_norm <= 2 * n * np.finfo(float).eps * np.sqrt(np.vdot(m, m))
    if kind in ("zero", "diagonal"):
        # nothing to reflect or rotate: the diagonal is exact
        assert np.array_equal(result.values, np.sort(np.diag(m)))
        assert result.off_norm == 0.0 and result.rounding == 0.0
    if kind in ("adjacency", "disconnected"):
        # every LAPACK eigenvalue lies inside the interval of its merged group
        lapack = np.linalg.eigvalsh(m)
        start = 0
        for eig, mult in reversed(numeric_spectrum(Graph(m.astype(bool))).entries):
            group = lapack[start:start + mult]
            start += mult
            assert eig.lo <= group[0] and group[-1] <= eig.hi


# few distinct eigenvalues, high multiplicities: T splits or carries
# rounding-level entries that only the norm-based tolerance drops
_NAMED_GRAPHS = [
    crown(9), crown(16),
    complete_multipartite(4, 14), complete_multipartite(7, 5), complete_multipartite(3, 1),
    paley(13), paley(49), paley(61),
    triangular(8), triangular(11),
    cycle(7), complete(6),
]


def _relabellings(graph: Graph):
    rng = np.random.default_rng(graph.n)
    for _ in range(3):
        p = rng.permutation(graph.n)
        yield graph.adj[np.ix_(p, p)].astype(np.float64)


@pytest.mark.parametrize("graph", _NAMED_GRAPHS, ids=lambda g: f"n={g.n}")
def test_jacobi_bound_on_relabelled_named_graphs(graph):
    for m in _relabellings(graph):
        _assert_bound_covers_lapack(m)


def _assert_tridiagonal_matches_reference(m: np.ndarray) -> float:
    """d, e and the dropped norm equal the former column loop's bit for
    bit; only the rounding units, scaled by the running trailing norm,
    may differ, and then by rounding.  Returns the dropped norm."""
    norm_sq = float(np.vdot(m, m))
    tol = np.finfo(float).eps * np.sqrt(norm_sq)
    d, e, dropped, units = jacobi._tridiagonalize(m.copy(), tol, norm_sq)
    ref_d, ref_e, ref_dropped, ref_units = tridiagonalize_reference(m.copy(), tol)
    assert d == ref_d and e == ref_e and dropped == ref_dropped
    assert abs(units - ref_units) <= 1e-12 * ref_units
    return dropped


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "adjacency", "zero", "diagonal", "blocks", "disconnected"]))
def test_tridiagonal_is_bit_identical_to_the_reference(n, seed, kind):
    _assert_tridiagonal_matches_reference(_property_matrix(kind, n, seed))


@pytest.mark.parametrize("graph", _NAMED_GRAPHS, ids=lambda g: f"n={g.n}")
def test_tridiagonal_is_bit_identical_on_relabelled_named_graphs(graph):
    for m in _relabellings(graph):
        _assert_tridiagonal_matches_reference(m)


def test_tridiagonal_is_bit_identical_on_the_benchmark_graphs():
    # the 134 graphs of the benchmark's references and their complements,
    # each relabelled once: most of their columns are dropped, many with a
    # nonzero tail below the tolerance
    rows = [json.loads(line) for line in GRAPHS_REF.read_text("utf-8").splitlines()]
    rng = np.random.default_rng(1)
    dropped = []
    for row in rows:
        g = Graph.from_edges(row["n"], decode_adjacency(row["n"], row["bits"]))
        for adj in (g.adj, complement(g).adj):
            p = rng.permutation(g.n)
            dropped.append(_assert_tridiagonal_matches_reference(adj[np.ix_(p, p)].astype(np.float64)))
    assert len(dropped) == 268 and sum(x > 0.0 for x in dropped) >= 200


@pytest.mark.parametrize("seed", range(4))
def test_jacobi_bound_covers_lapack_with_a_block_scaled_by_1e9(seed):
    # eigenvalues near 1e9: the derived bound still covers LAPACK's values,
    # though no solver agrees with LAPACK to 1e-9 there
    rng = np.random.default_rng(seed)
    large, small = rng.normal(size=(12, 12)), rng.normal(size=(20, 20))
    m = np.zeros((32, 32))
    m[:12, :12] = (large + large.T) / 2 * 1e9
    m[12:, 12:] = (small + small.T) / 2
    p = rng.permutation(32)
    _assert_bound_covers_lapack(m[np.ix_(p, p)], absolute=False)


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_running_trailing_norm_is_clamped_where_it_cancels(monkeypatch, scale):
    # two blocks far apart in scale, relabelled: once the large block is
    # reduced, ||A_k||_F^2 is what is left of ||A||_F^2 after subtracting
    # terms of about its own size, so rounding can take it below 0
    arguments = []

    def sqrt(x):
        arguments.append(x)
        return math.sqrt(x)

    monkeypatch.setattr(jacobi, "math", SimpleNamespace(
        sqrt=sqrt, hypot=math.hypot, copysign=math.copysign))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        large, small = rng.normal(size=(12, 12)), rng.normal(size=(20, 20))
        m = np.zeros((32, 32))
        m[:12, :12] = (large + large.T) / 2
        m[12:, 12:] = (small + small.T) / 2 / scale
        p = rng.permutation(32)
        _assert_bound_covers_lapack(m[np.ix_(p, p)])
    assert min(arguments) >= 0.0


@pytest.mark.parametrize("d", [1.0, -3.5, 1e6, 2.0 ** -30])
@pytest.mark.parametrize("where", ["off-diagonal of T", "column tail"])
def test_jacobi_dropped_entries_are_in_the_bound(d, where):
    # t is below the tolerance eps * ||A||_F, so the solver drops it and
    # neither reflects nor rotates; the exact eigenvalues are d - t, (d,) d + t
    t = 2.0 ** -60 * abs(d)
    low, high = Fraction(d) - Fraction(t), Fraction(d) + Fraction(t)
    if where == "off-diagonal of T":
        m, exact = [[d, t], [t, d]], (low, high)
    else:
        m, exact = [[d, 0, t], [0, d, 0], [t, 0, d]], (low, Fraction(d), high)
    result = jacobi_eigenvalues(np.array(m))
    assert result.values.tolist() == [d] * len(m) and result.rounding == 0.0
    for value, eigenvalue in zip(result.values, exact):
        assert abs(Fraction(value) - eigenvalue) <= Fraction(result.off_norm)


def test_jacobi_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(jacobi, "MAX_QL_ITERATIONS", 0)
    with pytest.raises(JacobiConvergenceError, match="after 0 QL iterations"):
        jacobi_eigenvalues(cycle(5).adj.astype(np.float64))
    # a diagonal matrix needs no iteration, so the cap is not reached
    assert jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0])).values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("density", [0.5, 0.9])
def test_numeric_radius_at_the_eigensolver_cap(density):
    adj = _random_adjacency(np.random.default_rng(600), MAX_EIGEN_N, density)
    result = jacobi_eigenvalues(adj)
    assert result.off_norm + result.rounding <= 1e-7


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.sampled_from([0.0, 1e-12, 2e-8, 4e-8, 1e-3, 1.0]), max_size=30),
       off_norm=st.sampled_from([0.0, 1e-13, 3e-9]))
def test_numeric_spectrum_radius_covers_group_spread(steps, off_norm):
    # values 2e-8..4e-8 apart chain into one group however wide it grows
    values = np.cumsum([-2.0] + steps)
    rounding = 1e-12
    fake = JacobiResult(values, off_norm, rounding)
    with mock.patch("equigraph.graphs.jacobi_eigenvalues", return_value=fake):
        spec = numeric_spectrum(Graph(np.zeros((len(values), len(values)), dtype=bool)))
    start = 0
    for eig, mult in reversed(spec.entries):
        group = values[start:start + mult]
        start += mult
        half_spread = (group[-1] - group[0]) / 2
        assert eig.radius >= max(NUMERIC_RADIUS, off_norm + rounding + half_spread)
        assert eig.lo <= group[0] and group[-1] <= eig.hi
    assert start == len(values)


# -- constructions -----------------------------------------------------------------

def test_crown_small_cases():
    cr3 = crown(3)
    assert cr3.n == 6
    assert regularity(cr3) == 2
    assert is_isospectral(cr3, cycle(6))


def test_crown_is_kronecker_k2_kt():
    for t in (2, 3, 5):
        a = crown(t)
        b = kronecker(complete(2), complete(t))
        assert is_isospectral(a, b)
        assert regularity(b) == t - 1


def test_lattice_parameters():
    assert srg_counts(lattice(4)) == srg_counts(line_graph(complete_bipartite(4, 4)))
    assert srg_counts(lattice(4)) == (16, 6, 2, 2)


def test_lattice_srg_sweep():
    for n in range(3, 13):
        assert srg_counts(lattice(n)) == (n * n, 2 * n - 2, n - 2, 2)


def test_complete_multipartite_c4():
    g = complete_multipartite(2, 2)
    assert is_isospectral(g, cycle(4))


def test_triangular_is_line_graph_of_complete():
    assert is_isospectral(triangular(5), line_graph(complete(5)))
    assert srg_counts(triangular(5)) == (10, 6, 3, 4)


def test_petersen_detection():
    assert srg_counts(petersen()) == (10, 3, 0, 1)


def test_c6_is_not_strongly_regular():
    assert srg_counts(cycle(6)) is None


def test_complete_and_empty_excluded_from_srg():
    assert srg_counts(complete(5)) is None
    assert srg_counts(complement(complete(5))) is None


def test_shrikhande_properties():
    g = shrikhande()
    assert srg_counts(g) == (16, 6, 2, 2)
    rook = line_graph(complete_bipartite(4, 4))
    assert is_isospectral(g, rook)


def test_q3_vs_complement_not_isospectral():
    g = cube_q3()
    assert not is_isospectral(g, complement(g))


def test_complement_involution():
    for g in (petersen(), crown(4), cycle(7)):
        assert np.array_equal(complement(complement(g)).adj, g.adj)


def test_complement_with_loops_flips_diagonal():
    g = complete(3)
    loopy = complement(g, loops=True)
    assert loopy.loops_allowed
    assert np.all(np.diag(loopy.adj))
    assert not np.any(loopy.adj & g.adj)


def test_bipartite_checks():
    assert is_bipartite(crown(4))
    assert is_bipartite(complete_bipartite(3, 5))
    assert not is_bipartite(complete(3))
    assert not is_bipartite(complement(crown(3)))


def _line_graph_loop(g):
    """The former O(m^2) line-graph construction, kept as the reference."""
    edges = g.edges()
    m = len(edges)
    adj = np.zeros((m, m), dtype=bool)
    for x in range(m):
        ex = set(edges[x])
        for y in range(x + 1, m):
            if ex & set(edges[y]):
                adj[x, y] = adj[y, x] = True
    return adj


def _triangular_loop(n):
    """The former triangular construction: 2-subsets adjacent when they meet."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    adj = np.zeros((m, m), dtype=bool)
    for x in range(m):
        ax, bx = pairs[x]
        for y in range(x + 1, m):
            ay, by = pairs[y]
            if len({ax, bx, ay, by}) == 3:
                adj[x, y] = adj[y, x] = True
    return adj


def _petersen_loop():
    """The former Petersen construction: 2-subsets of {0..4} adjacent when disjoint."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    adj = np.zeros((10, 10), dtype=bool)
    for x in range(10):
        for y in range(x + 1, 10):
            if not set(pairs[x]) & set(pairs[y]):
                adj[x, y] = adj[y, x] = True
    return adj


def _lattice_reference(n):
    """The former rook's-graph construction: same row xor same column."""
    idx = np.arange(n * n)
    row, col = idx // n, idx % n
    return (row[:, None] == row[None, :]) ^ (col[:, None] == col[None, :])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_line_graph_equals_the_loop_reference(n, density, seed):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, k=1)
    g = Graph(upper | upper.T)
    assert np.array_equal(line_graph(g).adj, _line_graph_loop(g))


def test_derived_families_equal_their_former_constructions():
    for n in range(4, 13):
        assert np.array_equal(triangular(n).adj, _triangular_loop(n)), n
    for n in range(2, 10):
        assert np.array_equal(lattice(n).adj, _lattice_reference(n)), n
    assert np.array_equal(petersen().adj, _petersen_loop())


def test_gen_named_dispatch():
    assert gen_named("crown", t=3).n == 6
    assert gen_named("lattice", n=4).n == 16
    assert gen_named("petersen").n == 10
    with pytest.raises(ValueError):
        gen_named("crown", n=3)
    with pytest.raises(ValueError):
        gen_named("unknown_family")


# -- cayley and fields ----------------------------------------------------------------

def test_cayley_rejects_asymmetric_connection():
    with pytest.raises(ValueError):
        cayley([5], {(1,)})
    with pytest.raises(ValueError):
        cayley([4], {(0,)})


def test_paley_5_is_c5():
    assert is_isospectral(paley(5), cycle(5))


def test_paley_9_srg():
    assert srg_counts(paley(9)) == (9, 4, 1, 2)


def test_paley_13_srg():
    assert srg_counts(paley(13)) == (13, 6, 2, 3)


def test_gp_graph_regularity():
    assert regularity(gp_graph(3, 64)) == 21
    assert regularity(gp_graph(3, 16)) == 5
    assert is_isospectral(gp_graph(2, 5), cycle(5))


def test_gp_graph_rejects_asymmetric_residues():
    # (7-1)/2 = 3 odd in odd characteristic: squares mod 7 are not symmetric
    with pytest.raises(ValueError):
        gp_graph(2, 7)
    with pytest.raises(ValueError):
        gp_graph(4, 16)  # 4 does not divide 15
    assert regularity(gp_graph(3, 7)) == 2  # residues {1, 6} are symmetric


def test_unitary_cayley_factors():
    assert unitary_cayley_concrete(["F2"]).n == 2
    z4 = unitary_cayley_concrete(["Z4"])
    assert z4.n == 4 and regularity(z4) == 2
    big = unitary_cayley_concrete(["F3", "F5", "F5"])
    assert big.n == 75 and regularity(big) == 32
    with pytest.raises(ValueError):
        unitary_cayley_concrete(["Z12"])
    with pytest.raises(ValueError):
        unitary_cayley_concrete(["F6"])


# -- numeric spectra -------------------------------------------------------------------

def test_numeric_spectrum_petersen():
    s = numeric_spectrum(petersen())
    expect = Spectrum([(3, 1), (1, 5), (-2, 4)])
    assert spectra_match(s, expect)


def test_numeric_spectrum_k1():
    s = numeric_spectrum(complete(1))
    assert s.n == 1
    assert abs(s.entries[0][0].value) < 1e-10


def test_numeric_trace_identities():
    for g in (petersen(), crown(5), lattice(4), paley(13)):
        s = numeric_spectrum(g)
        k = regularity(g)
        total = sum(e.value * m for e, m in s.entries)
        square = sum(e.value ** 2 * m for e, m in s.entries)
        assert abs(total) < 1e-6
        assert abs(square - g.n * k) < 1e-5


def test_kronecker_spectrum_is_pairwise_products():
    rng = np.random.default_rng(3)
    for _ in range(4):
        n1, n2 = rng.integers(2, 7), rng.integers(2, 7)
        a1 = rng.random((n1, n1)) < 0.5
        a2 = rng.random((n2, n2)) < 0.5
        a1 = np.triu(a1, 1)
        a2 = np.triu(a2, 1)
        g1 = type(petersen())( (a1 | a1.T) )
        g2 = type(petersen())( (a2 | a2.T) )
        v1 = jacobi_eigenvalues(g1.adj.astype(float)).values
        v2 = jacobi_eigenvalues(g2.adj.astype(float)).values
        prod = np.sort(np.outer(v1, v2).ravel())
        direct = jacobi_eigenvalues(kronecker(g1, g2).adj.astype(float)).values
        assert np.max(np.abs(prod - direct)) < 1e-7


def test_desargues_from_kronecker_doubling():
    desargues = kronecker(petersen(), complete(2))
    expect = Spectrum([(3, 1), (2, 4), (1, 5), (-1, 5), (-2, 4), (-3, 1)])
    assert spectra_match(numeric_spectrum(desargues), expect)


# -- text format ------------------------------------------------------------------------

def test_graph_text_round_trip():
    g = petersen()
    back = read_graph(write_graph(g))
    assert np.array_equal(back.adj, g.adj)
    assert back.loops_allowed == g.loops_allowed


def test_read_graph_errors():
    with pytest.raises(ValueError):
        read_graph("")
    with pytest.raises(ValueError):
        read_graph("3 0\n0 0\n")
    with pytest.raises(ValueError):
        read_graph("2 0\n0 5\n")


@pytest.mark.parametrize("text, line", [
    ("0 0\n", 1),                     # no vertices
    ("x 0\n0 1\n", 1),
    ("-3 0\n0 1\n", 1),
    ("+3 0\n0 1\n", 1),
    ("3.0 0\n0 1\n", 1),
    ("3 0\n0 y\n", 2),
    ("3 0\n0 1\n1.5 2\n", 3),
    ("\n3 0\n\n0 1\nq 2\n", 5),      # blank lines keep the file's numbering
    ("\nx 0\n", 2),
    ("3 0\n0 1\n2 2\n", 3),         # a loop in a loopless graph
])
def test_read_graph_names_the_line_of_a_bad_token(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        read_graph(text)


def test_read_graph_accepts_a_single_vertex():
    g = read_graph("1 0\n")
    assert g.n == 1 and not g.adj.any()


@pytest.mark.parametrize("flag", ["7", "2", "-1", "01", "true", "x"])
def test_read_graph_rejects_a_loops_flag_other_than_0_or_1(flag):
    with pytest.raises(ValueError, match="^line 1: "):
        read_graph(f"4 {flag}\n0 1\n")


@pytest.mark.parametrize("text", [
    "1000000000 0\n",
    "1000000000 0\nx y z\n0 1\n",
    "20000 1\n0 1\n",
    "1000000000 0\r\n0 1\r\n",          # outside the common shape
    "\n\n601 0\n0 1\n",
])
def test_read_graph_refuses_a_header_above_the_cap_before_building(text):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^n=\d+ above the 600 eigensolver cap$"):
            read_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_from_edges_takes_pairs_or_an_array():
    pairs = [(0, 1), (1, 2), (3, 2)]
    g = Graph.from_edges(4, pairs)
    assert np.array_equal(g.adj, Graph.from_edges(4, np.array(pairs)).adj)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert not Graph.from_edges(3, []).adj.any()
    looped = Graph.from_edges(2, np.array([[1, 1]]), loops_allowed=True)
    assert looped.adj.tolist() == [[False, False], [False, True]]


@pytest.mark.parametrize("adj, message", [
    (np.zeros((2, 3)), "adjacency must be square"),
    (np.zeros(3), "adjacency must be square"),
    ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], "adjacency must be symmetric"),
    ([[0, 0], [0, 1]], "diagonal entries present but loops are not allowed"),
], ids=["not-square", "one-dimensional", "one-direction-edge", "loop"])
def test_graph_refuses_an_adjacency_it_cannot_hold(adj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(adj)


def test_graph_leaves_the_callers_array_writable():
    a = np.zeros((2, 2), dtype=bool)
    g = Graph(a)
    a[0, 1] = a[1, 0] = True
    assert not g.adj.any()
    assert not g.adj.flags.writeable


_REGULAR_GRAPHS = [cycle(5), crown(4), complete(4), petersen(), paley(9), complete(1),
                   complete_multipartite(3, 2), cube_q3()]
# edge lines outside the common shape, most of them errors; "{u}" and "{v}"
# are vertices in range
_NEAR_MISSES = ["{u} {v} {u}", "{u}", "{u} {v} {u} {v}", "+{u} {v}", "-1 {v}", "\u0663 {v}", "1_0 {v}",
                "{u} {n}", "{u} 99999999999999999999", "{u} {u}", "0000000000000000000{u} {v}",
                "1000000000000000000 {v}", "{u} 0x1", "{u},{v}", "{u}\u00a0{v}", "{u} {v}\r",
                # np.loadtxt splits tokens at these, where str.splitlines ends the line
                "{u}\x0c{v}", "{u}\x0b{v}", "{u}\x1c{v}", "{u}\x85{v}", "{u}\u2028{v}"]
# str.splitlines breaks at these too
_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def _graph_files(draw, common=False):
    """Graph files of relabelled regular graphs in the common shape: spaces
    and tabs, blank and whitespace-only lines, with or without a trailing
    newline, loops flag 0 or 1.  Unless ``common``, sometimes with up to two
    near-miss lines, CRLF line ends or leading blank lines."""
    g = draw(st.sampled_from(_REGULAR_GRAPHS))
    perm = draw(st.permutations(range(g.n)))
    edges = draw(st.permutations([(perm[u], perm[v]) for u, v in g.edges()]))
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t"])
    lines = [f"{g.n} {int(draw(st.booleans()))}"]
    for u, v in edges:
        if draw(st.booleans()):
            u, v = v, u
        lines.append(draw(pad) + f"{u}{draw(space)}{v}" + draw(pad))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(pad))
    if common:
        return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    vertex = st.integers(0, g.n - 1)
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.sampled_from(_NEAR_MISSES)).format(u=draw(vertex), v=draw(vertex), n=g.n)
        lines.insert(draw(st.integers(1, len(lines))), bad)
    # other line breaks than "\n": CRLF throughout, or one after the header
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n"]))
    lines[:2] = [draw(st.sampled_from([end] * 18 + _LINE_BREAKS)).join(lines[:2])]
    lead = draw(st.sampled_from([""] * 8 + ["\n", " \n"]))
    return lead + end.join(lines) + draw(st.sampled_from([end, ""]))


def _graph_or_error(read, text):
    try:
        g = read(text)
    except ValueError as exc:
        return str(exc)
    return g.adj.tolist(), g.loops_allowed


@settings(max_examples=300, deadline=None)
@given(text=_graph_files())
# each example breaks one condition of the numpy path (the shape, the range,
# no loops, a one-line header) so that no other condition catches it
@example(text="3 0\n0 1 2\n1\n")
@example(text="3 0\n0 1\n2\n0\n")
@example(text="3 0\n0\n1 2 0\n")
@example(text="3 0\n0 1\n2 2\n")
@example(text="3 0\n0 1\n2\n")
@example(text="3 0\n0 1 1 2\n")
@example(text="3 0\n0 1\n-1 2\n")
@example(text="3 0\x0b0 1\n")
@example(text="3 0\n")
@example(text="3 0\n \n\t\n")
def test_read_graph_equals_the_per_line_reader(text):
    assert _graph_or_error(read_graph, text) == _graph_or_error(graphs._read_lines, text)


@settings(max_examples=50, deadline=None)
@given(text=_graph_files(common=True))
# a body without edges is answered before np.loadtxt, which warns on it
@example(text="1 0\n")
@example(text="1 0\n \n\t\n")
def test_read_graph_parses_the_common_shape_in_numpy(text):
    header, _, body = text.partition("\n")
    n, loops = int(header.split()[0]), header.split()[1] == "1"
    edges = graphs._read_edges(body, n, loops)
    assert edges is not None
    assert np.array_equal(Graph.from_edges(n, edges, loops_allowed=loops).adj,
                          graphs._read_lines(text).adj)
