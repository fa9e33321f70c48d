"""Concrete graph constructions, products, predicates and the numeric spectrum,
and the table of named families with their guards and closed-form spectra.

Adjacency is a dense symmetric boolean numpy matrix.  Eigensolving is
capped at 600 vertices; every verification in the package sits below
that bound.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import product as iter_product
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import _lazy_module
from .exact import Surd, exact_sum
from .fields import GF, prime_power_decompose
from .jacobi import jacobi_eigenvalues
from .spectra import Eig, Spectrum

# the srg layer runs only when an srg-shaped family's closed form is read,
# so a graph file or any other family never runs it
S = _lazy_module("srg")

# numpy is imported inside each function that builds, reads or solves a
# graph, so that the commands decided in exact arithmetic never load it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Graph",
    "Family",
    "FAMILIES",
    "family_args",
    "gen_named",
    "cycle",
    "complete",
    "complete_bipartite",
    "complete_multipartite",
    "crown",
    "lattice",
    "triangular",
    "petersen",
    "shrikhande",
    "cube_q3",
    "prism_k3",
    "kronecker",
    "cartesian",
    "line_graph",
    "complement",
    "cayley",
    "gp_graph",
    "paley",
    "unitary_cayley_concrete",
    "numeric_spectrum",
    "is_bipartite",
    "regularity",
    "spectral_regularity",
    "read_graph",
]

# a time and memory bound: with one BLAS thread on a 2-core x86_64 machine
# a random 0/1 matrix takes 0.49-0.54 s at n = 600 and Paley(593) 0.18-0.19 s,
# and each n x n float64 array the solver holds is 2.9 MB; the derived radius
# stays at most 1e-7 here (test_graphs.py::test_numeric_radius_at_the_eigensolver_cap)
MAX_EIGEN_N = 600


def _check_eigen_cap(n: int) -> None:
    if n > MAX_EIGEN_N:
        raise ValueError(f"n={n} above the {MAX_EIGEN_N} eigensolver cap")


class Graph:
    """Undirected graph on n vertices; loops only when loops_allowed."""

    __slots__ = ("n", "adj", "loops_allowed")

    def __init__(self, adj: np.ndarray, loops_allowed: bool = False):
        import numpy as np
        adj = np.array(adj, dtype=bool)  # a copy, so the caller's array stays writable
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not (adj == adj.T).all():
            raise ValueError("adjacency must be symmetric")
        if not loops_allowed and adj.diagonal().any():
            raise ValueError("diagonal entries present but loops are not allowed")
        self.n = adj.shape[0]
        self.adj = adj
        self.adj.setflags(write=False)
        self.loops_allowed = loops_allowed

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]] | np.ndarray,
                   loops_allowed: bool = False) -> "Graph":
        """The graph with the given (u, v) pairs, a sequence of pairs or an
        (m, 2) integer array, as edges."""
        import numpy as np
        us, vs = np.asarray(edges, dtype=np.intp).reshape(len(edges), 2).T
        adj = np.zeros((n, n), dtype=bool)
        adj[us, vs] = True
        adj[vs, us] = True
        return cls(adj, loops_allowed=loops_allowed)

    def edges(self) -> list[tuple[int, int]]:
        import numpy as np
        us, vs = np.nonzero(np.triu(self.adj))
        return list(zip(us.tolist(), vs.tolist()))

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={int(self.adj.sum()) // 2})"


# -- named families -------------------------------------------------------------
# Each builder checks its parameters with its family's guard in FAMILIES.


def cycle(n: int) -> Graph:
    FAMILIES["cycle"].guard(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    import numpy as np
    FAMILIES["complete"].guard(n)
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(adj)


def complete_bipartite(a: int, b: int) -> Graph:
    import numpy as np
    FAMILIES["complete_bipartite"].guard(a, b)
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    adj[a:, :a] = True
    return Graph(adj)


def complete_multipartite(a: int, m: int) -> Graph:
    """K_{a x m}: a parts of size m, all cross edges."""
    import numpy as np
    FAMILIES["complete_multipartite"].guard(a, m)
    n = a * m
    part = np.arange(n) // m
    adj = part[:, None] != part[None, :]
    return Graph(adj)


def crown(t: int) -> Graph:
    """K_{t,t} minus the identity perfect matching (i paired with i')."""
    FAMILIES["crown"].guard(t)
    g = complete_bipartite(t, t)
    adj = g.adj.copy()
    for i in range(t):
        adj[i, t + i] = False
        adj[t + i, i] = False
    return Graph(adj)


def lattice(n: int) -> Graph:
    """Rook's graph on an n x n board, the line graph of K_{n,n}; square (i, j) is i*n + j."""
    FAMILIES["lattice"].guard(n)
    return line_graph(complete_bipartite(n, n))


def triangular(n: int) -> Graph:
    """Line graph of K_n: the 2-subsets in lexicographic order, adjacent when they meet."""
    FAMILIES["triangular"].guard(n)
    return line_graph(complete(n))


def petersen() -> Graph:
    """Kneser graph K(5, 2), the complement of T(5): 2-subsets adjacent when disjoint."""
    return complement(triangular(5))


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return cayley([4, 4], conn)


def cube_q3() -> Graph:
    """The 3-cube K_2 x K_2 x K_2; vertex x is adjacent to x with one bit flipped."""
    return cartesian(cartesian(complete(2), complete(2)), complete(2))


def prism_k3() -> Graph:
    return cartesian(complete(3), complete(2))


# -- products and derived graphs ----------------------------------------------------


def kronecker(g: Graph, h: Graph) -> Graph:
    import numpy as np
    return Graph(np.kron(g.adj, h.adj), loops_allowed=g.loops_allowed or h.loops_allowed)


def cartesian(g: Graph, h: Graph) -> Graph:
    import numpy as np
    eg = np.eye(g.n, dtype=bool)
    eh = np.eye(h.n, dtype=bool)
    return Graph(np.kron(g.adj, eh) | np.kron(eg, h.adj))


def line_graph(g: Graph) -> Graph:
    """Edges of g in ``g.edges()`` order, adjacent when they share an endpoint:
    the incidence product B B^T with its diagonal cleared."""
    import numpy as np
    us, vs = np.nonzero(np.triu(g.adj))
    incidence = np.zeros((len(us), g.n))
    rows = np.arange(len(us))
    incidence[rows, us] = 1
    incidence[rows, vs] = 1
    adj = incidence @ incidence.T > 0
    np.fill_diagonal(adj, False)
    return Graph(adj)


def complement(g: Graph, loops: bool = False) -> Graph:
    """J - A - I normally; J - A (diagonal flipped) when loops=True."""
    import numpy as np
    adj = ~g.adj
    if not loops:
        np.fill_diagonal(adj, False)
        return Graph(adj)
    return Graph(adj, loops_allowed=True)


# -- Cayley constructions -------------------------------------------------------------


def cayley(moduli: Sequence[int], connection: Iterable[tuple[int, ...]]) -> Graph:
    """X(Z_m1 x ... x Z_mk, S) with S a symmetric set of nonzero tuples."""
    moduli = tuple(int(m) for m in moduli)
    conn = {tuple(int(c) % m for c, m in zip(t, moduli)) for t in connection}
    zero = tuple(0 for _ in moduli)
    if zero in conn:
        raise ValueError("connection set contains 0 (would create loops)")
    for t in conn:
        if tuple((-c) % m for c, m in zip(t, moduli)) not in conn:
            raise ValueError(f"connection set not closed under negation: {t}")
    elements = list(iter_product(*[range(m) for m in moduli]))
    index = {e: i for i, e in enumerate(elements)}
    edges = [(i, index[tuple((xc + sc) % m for xc, sc, m in zip(x, s, moduli))])
             for i, x in enumerate(elements) for s in conn]
    return Graph.from_edges(len(elements), edges)


def _power_residue_guard(k: int, q: int) -> None:
    """GF(q) exists, k divides q - 1 and the k-th power residues are closed
    under negation."""
    decomp = prime_power_decompose(q)
    _need(decomp is not None, f"{q} is not a prime power")
    _need(k >= 1, f"k={k} must be positive")
    _need((q - 1) % k == 0, f"k={k} must divide q - 1 = {q - 1}")
    _need(decomp[0] == 2 or ((q - 1) // k) % 2 == 0,
          f"power residue set R_{k} in GF({q}) is not symmetric "
          "(need (q-1)/k even or characteristic 2)")


def gp_graph(k: int, q: int) -> Graph:
    """Cayley graph on GF(q) whose connection set is the k-th power residues."""
    FAMILIES["gp"].guard(k, q)
    field = GF(q)
    residues = field.power_residues(k)
    return Graph.from_edges(q, [(x, field.add(x, r)) for x in range(q) for r in residues])


def paley(q: int) -> Graph:
    return gp_graph(2, q)


def _unitary_factor(spec: str) -> Graph:
    """One local factor: 'F<q>' is a field, 'Z<p^a>' is Z modulo a prime power."""
    kind, num = spec[0].upper(), spec[1:]
    size = int(num)
    if kind == "F":
        if prime_power_decompose(size) is None:
            raise ValueError(f"no field of order {size}")
        return complete(size)
    if kind == "Z":
        decomp = prime_power_decompose(size)
        if decomp is None:
            raise ValueError(f"Z_{size} is not a local ring (size not a prime power)")
        p, _ = decomp
        conn = {x for x in range(1, size) if x % p != 0}
        return cayley([size], {(x,) for x in conn})
    raise ValueError(f"unsupported local factor {spec!r} (use F<q> or Z<p^a>)")


def unitary_cayley_concrete(factors: Sequence[str]) -> Graph:
    """X(R, R*) for R a product of fields and Z_{p^a} factors, as a Kronecker product."""
    if not factors:
        raise ValueError("need at least one local factor")
    graphs = [_unitary_factor(f) for f in factors]
    out = graphs[0]
    for g in graphs[1:]:
        out = kronecker(out, g)
    return out


# -- the named-family table -------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A named family: its parameter names, a guard that raises ValueError when
    the parameters name no graph, the builder, and the closed-form exact
    spectrum (None where the family has none for those parameters).  A
    family whose spectrum can be None also gives its vertex count, so that
    a graph above the eigensolver cap is refused before it is built."""

    params: tuple[str, ...]
    guard: Callable[..., None]
    build: Callable[..., Graph]
    spectrum: Callable[..., Optional[Spectrum]]
    order: Optional[Callable[..., int]] = None


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _no_params() -> None:
    pass


def _spec(values) -> Spectrum:
    """An exact spectrum from (value, multiplicity) pairs, dropping multiplicity 0."""
    return Spectrum([(v, m) for v, m in values if m])


def _complete_bipartite_spectrum(a: int, b: int) -> Spectrum:
    """+-sqrt(ab) and 0; a square ab (every K_{a,a}) gives ints, so no
    radicand is factored."""
    root = isqrt(a * b)
    root = root if root * root == a * b else Surd(0, 1, a * b)
    return _spec([(root, 1), (0, a + b - 2), (-root, 1)])


def _cycle_spectrum(n: int) -> Optional[Spectrum]:
    """C_3 .. C_6 in closed form; longer cycles are solved numerically."""
    if n == 5:
        return FAMILIES["paley"].spectrum(5)
    small = {3: [(2, 1), (-1, 2)], 4: [(2, 1), (0, 2), (-2, 1)],
             6: [(2, 1), (1, 2), (-1, 2), (-2, 1)]}
    return _spec(small[n]) if n in small else None


def _gp_spectrum(k: int, q: int) -> Optional[Spectrum]:
    """k = 1 gives K_q and k = 2 Paley(q), each in its own closed form; a
    larger k has one only in the semiprimitive case."""
    if k <= 2:
        return FAMILIES["complete" if k == 1 else "paley"].spectrum(q)
    try:
        return S.gp_spectrum(k, q).spectrum
    except ValueError:  # not semiprimitive: no closed form
        return None


# the first appearances of the parameter names give the CLI's option order
FAMILIES: dict[str, Family] = {
    "crown": Family(("t",), lambda t: _need(t >= 2, "crown needs t >= 2"), crown,
                    lambda t: _spec([(t - 1, 1), (1, t - 1), (-1, t - 1), (1 - t, 1)])),
    "cycle": Family(("n",), lambda n: _need(n >= 3, "cycle needs n >= 3"), cycle,
                    _cycle_spectrum, order=lambda n: n),
    "complete": Family(("n",), lambda n: _need(n >= 1, "complete graph needs n >= 1"),
                       complete, lambda n: _spec([(n - 1, 1), (-1, n - 1)])),
    "complete_bipartite": Family(
        ("a", "b"), lambda a, b: _need(a >= 1 and b >= 1, "parts must be nonempty"),
        complete_bipartite, _complete_bipartite_spectrum),
    "complete_multipartite": Family(
        ("a", "m"), lambda a, m: _need(a >= 1 and m >= 1, "need a, m >= 1"),
        complete_multipartite,
        lambda a, m: _spec([((a - 1) * m, 1), (0, a * (m - 1)), (-m, a - 1)])),
    "lattice": Family(("n",), lambda n: _need(n >= 2, "lattice needs n >= 2"), lattice,
                      lambda n: S.spectrum_of(S.latin_square_params(2, n))),
    "triangular": Family(("n",), lambda n: _need(n >= 4, "triangular graph needs n >= 4"),
                         triangular, lambda n: S.spectrum_of(S.steiner_params(2, n - 2))),
    "petersen": Family((), _no_params, petersen,
                       lambda: _spec([(3, 1), (1, 5), (-2, 4)])),
    "shrikhande": Family((), _no_params, shrikhande,
                         lambda: _spec([(6, 1), (2, 6), (-2, 9)])),
    "q3": Family((), _no_params, cube_q3,
                 lambda: _spec([(3, 1), (1, 3), (-1, 3), (-3, 1)])),
    "k3_prism": Family((), _no_params, prism_k3,
                       lambda: _spec([(3, 1), (1, 1), (0, 2), (-2, 2)])),
    "paley": Family(("q",), lambda q: _power_residue_guard(2, q), paley,
                    lambda q: S.spectrum_of(S.family_params(S.Conference((q - 1) // 4)))),
    "gp": Family(("k", "q"), _power_residue_guard, gp_graph, _gp_spectrum,
                 order=lambda k, q: q),
}


def family_args(family: str, params: dict) -> tuple[Family, tuple]:
    """A family's table entry and its parameter values in the entry's order."""
    key = family.lower().replace("-", "_")
    if key not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    fam = FAMILIES[key]
    if set(params) != set(fam.params):
        raise ValueError(f"family {family!r} takes parameters {fam.params}")
    return fam, tuple(params[p] for p in fam.params)


def gen_named(family: str, **params) -> Graph:
    fam, args = family_args(family, params)
    return fam.build(*args)


# -- numeric spectrum ------------------------------------------------------------------


def numeric_spectrum(g: Graph) -> Spectrum:
    """All eigenvalues by Householder tridiagonalisation and implicit QL
    (``jacobi.jacobi_eigenvalues``), merged into a Spectrum of certified entries.

    With b = ``off_norm + rounding``, the solver's error bound, each
    computed value v stands for the interval [v - b, v + b], which holds a
    true eigenvalue.  Values whose intervals overlap, each at most 2b above
    the one before, chain into one entry, the hull of their intervals: it
    sits at the midpoint of the group's computed values and its radius is b
    plus half their spread.
    """
    _check_eigen_cap(g.n)
    result = jacobi_eigenvalues(g.adj)
    bound = result.off_norm + result.rounding
    groups: list[list[float]] = []
    for v in result.values.tolist():
        if groups and v - groups[-1][-1] <= 2 * bound:
            groups[-1].append(v)
        else:
            groups.append([v])
    entries = [(Eig.from_approx((grp[0] + grp[-1]) / 2, bound + (grp[-1] - grp[0]) / 2), len(grp))
               for grp in groups]
    return Spectrum(entries)


# -- predicates -------------------------------------------------------------------------


def regularity(g: Graph) -> Optional[int]:
    degs = g.degrees()
    k = int(degs[0]) if g.n else 0
    return k if (degs == k).all() else None


def spectral_regularity(spec: Spectrum) -> Optional[int]:
    """The degree of a regular graph read off its exact spectrum, or None
    when the graph is irregular.

    The average degree is trace(A^2)/n, the sum of m x^2 over the entries
    divided by n.  The largest eigenvalue, the first value, is at least the
    average degree, with equality exactly when the graph is regular
    (Brouwer-Haemers, *Spectra of Graphs*, section 3.1).
    """
    trace = exact_sum([(x * x, m) for x, m in spec.values])
    average = trace.rational_part / spec.n
    if (trace.is_rational and average.denominator == 1
            and spec.values[0][0] == average):
        return int(average)
    return None


def is_bipartite(g: Graph) -> bool:
    """Two-coloring by BFS; purely combinatorial."""
    import numpy as np
    color = np.full(g.n, -1, dtype=np.int8)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in np.nonzero(g.adj[u])[0]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(int(v))
                elif color[v] == color[u]:
                    return False
    return True


# -- text format ---------------------------------------------------------------------


def _read_header(parts: list[str], line_no: int, line: str) -> tuple[int, bool]:
    if len(parts) != 2:
        raise ValueError(f"line {line_no}: expected 'n loops', got {line!r}")
    count, flag = parts
    if flag not in ("0", "1"):
        raise ValueError(f"line {line_no}: loops flag must be 0 or 1, got {flag!r}")
    if not (count.isascii() and count.isdigit() and int(count) >= 1):
        raise ValueError(f"line {line_no}: vertex count must be a positive integer, "
                         f"got {count!r}")
    return int(count), flag == "1"


# the common body shape: ASCII decimal tokens, two per line, spaces or tabs
# between them, blank lines allowed, '\n' line ends.  np.loadtxt splits a
# line's tokens at '\x0b', '\x0c', '\x1c', '\x85' and '\u2028', where
# str.splitlines ends the line, so a body with any other character goes to
# the per-line reader
_BODY_CHARS = b"0123456789 \t\n"


def _read_edges(body: str, n: int, loops: bool) -> Optional[np.ndarray]:
    """The (m, 2) edge array of a body in the common shape whose vertices lie
    in [0, n) and which has no loop unless ``loops``; None for any other body,
    which the per-line reader parses or names the bad line of."""
    import numpy as np
    if body.encode().translate(None, _BODY_CHARS):  # UTF-8 encodes non-ASCII as bytes >= 0x80
        return None
    if body.isspace() or not body:  # np.loadtxt warns on a body without data
        return np.empty((0, 2), dtype=np.int64)
    try:
        edges = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if edges.shape[1] != 2 or edges.max() >= n:
        return None
    if not loops and (edges[:, 0] == edges[:, 1]).any():
        return None
    return edges


def read_graph(text: str) -> Graph:
    """Parse an 'n loops' header (n >= 1, loops 0 or 1) and one 'u v' edge
    per line, vertices in [0, n).  Blank lines are skipped; every error is
    a ValueError that names its line in the text.  A vertex count above
    ``MAX_EIGEN_N`` is refused as soon as the header is read, before any
    n x n array exists.

    A file whose first line is its header and whose body has the common
    shape (see ``_read_edges``) is parsed in a fixed number of numpy calls;
    any other text, and any error, goes through the per-line reader, which
    gives the same Graph or the same error.
    """
    header, _, body = text.partition("\n")
    parts = header.split()
    if parts and header.splitlines() == [header]:   # the per-line reader's line 1
        n, loops = _read_header(parts, 1, header)
        _check_eigen_cap(n)
        edges = _read_edges(body, n, loops)
        if edges is not None:
            return Graph.from_edges(n, edges, loops_allowed=loops)
    return _read_lines(text)


def _read_lines(text: str) -> Graph:
    """``read_graph`` one line at a time."""
    n = None
    edges = []
    for ln_no, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts:
            continue
        if n is None:
            n, loops = _read_header(parts, ln_no, ln)
            _check_eigen_cap(n)
            continue
        if len(parts) != 2:
            raise ValueError(f"line {ln_no}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {ln_no}: vertices must be integers, got {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {ln_no}: vertex out of range")
        if u == v and not loops:
            raise ValueError(f"line {ln_no}: loop in a loopless graph")
        edges.append((u, v))
    if n is None:
        raise ValueError("empty graph file")
    return Graph.from_edges(n, edges, loops_allowed=loops)
