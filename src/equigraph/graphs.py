"""Concrete graph constructions, products, predicates and the numeric spectrum.

Adjacency is a dense symmetric boolean numpy matrix.  Sizes are capped
at 400 vertices for eigensolving and 20000 for combinatorial work;
every verification in the package sits below those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Optional, Sequence

import numpy as np

from .fields import GF, prime_power_decompose
from .jacobi import jacobi_eigenvalues
from .spectra import Eig, Spectrum

__all__ = [
    "Graph",
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
    "srg_detect",
    "is_bipartite",
    "regularity",
    "is_isospectral",
    "write_graph",
    "read_graph",
    "SrgCounts",
]

# the slowest family measured, Paley (about 23 Jacobi sweeps), takes ~12 s
# at n = 389 on a 2-core machine; typical graphs take 4-6 s at n = 400
MAX_EIGEN_N = 400
MAX_COMBINATORIAL_N = 20000
NUMERIC_MERGE = 1e-9
NUMERIC_RADIUS = 1e-8


class Graph:
    """Undirected graph on n vertices; loops only when loops_allowed."""

    __slots__ = ("n", "adj", "loops_allowed")

    def __init__(self, adj: np.ndarray, loops_allowed: bool = False):
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not loops_allowed and np.any(np.diag(adj)):
            raise ValueError("diagonal entries present but loops are not allowed")
        self.n = adj.shape[0]
        self.adj = adj
        self.adj.setflags(write=False)
        self.loops_allowed = loops_allowed

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   loops_allowed: bool = False) -> "Graph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            adj[u, v] = True
            adj[v, u] = True
        return cls(adj, loops_allowed=loops_allowed)

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adj))
        return list(zip(us.tolist(), vs.tolist()))

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={int(self.adj.sum()) // 2})"


# -- named families -------------------------------------------------------------


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(adj)


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("parts must be nonempty")
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    adj[a:, :a] = True
    return Graph(adj)


def complete_multipartite(a: int, m: int) -> Graph:
    """K_{a x m}: a parts of size m, all cross edges."""
    if a < 1 or m < 1:
        raise ValueError("need a, m >= 1")
    n = a * m
    part = np.arange(n) // m
    adj = part[:, None] != part[None, :]
    return Graph(adj)


def crown(t: int) -> Graph:
    """K_{t,t} minus the identity perfect matching (i paired with i')."""
    if t < 2:
        raise ValueError("crown needs t >= 2")
    g = complete_bipartite(t, t)
    adj = g.adj.copy()
    for i in range(t):
        adj[i, t + i] = False
        adj[t + i, i] = False
    return Graph(adj)


def lattice(n: int) -> Graph:
    """Rook's graph on an n x n board (line graph of K_{n,n})."""
    if n < 2:
        raise ValueError("lattice needs n >= 2")
    idx = np.arange(n * n)
    row = idx // n
    col = idx % n
    same_row = row[:, None] == row[None, :]
    same_col = col[:, None] == col[None, :]
    adj = (same_row ^ same_col)
    return Graph(adj)


def triangular(n: int) -> Graph:
    """Line graph of K_n: vertices are 2-subsets, adjacent when they meet."""
    if n < 4:
        raise ValueError("triangular graph needs n >= 4")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    adj = np.zeros((m, m), dtype=bool)
    for x in range(m):
        ax, bx = pairs[x]
        for y in range(x + 1, m):
            ay, by = pairs[y]
            if len({ax, bx, ay, by}) == 3:
                adj[x, y] = adj[y, x] = True
    return Graph(adj)


def petersen() -> Graph:
    """Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent when disjoint."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    adj = np.zeros((10, 10), dtype=bool)
    for x in range(10):
        for y in range(x + 1, 10):
            if not set(pairs[x]) & set(pairs[y]):
                adj[x, y] = adj[y, x] = True
    return Graph(adj)


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return cayley([4, 4], conn)


def cube_q3() -> Graph:
    adj = np.zeros((8, 8), dtype=bool)
    for x in range(8):
        for bit in range(3):
            y = x ^ (1 << bit)
            adj[x, y] = adj[y, x] = True
    return Graph(adj)


def prism_k3() -> Graph:
    return cartesian(complete(3), complete(2))


_FAMILIES = {
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "complete_bipartite": (complete_bipartite, ("a", "b")),
    "complete_multipartite": (complete_multipartite, ("a", "m")),
    "crown": (crown, ("t",)),
    "lattice": (lattice, ("n",)),
    "triangular": (triangular, ("n",)),
    "petersen": (petersen, ()),
    "shrikhande": (shrikhande, ()),
    "q3": (cube_q3, ()),
    "k3_prism": (prism_k3, ()),
    "paley": (lambda q: paley(q), ("q",)),
    "gp": (lambda k, q: gp_graph(k, q), ("k", "q")),
}


def gen_named(family: str, **params) -> Graph:
    key = family.lower().replace("-", "_")
    if key not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    fn, names = _FAMILIES[key]
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise ValueError(f"family {family!r} takes parameters {names}")
    return fn(**{p: params[p] for p in names})


# -- products and derived graphs ----------------------------------------------------


def kronecker(g: Graph, h: Graph) -> Graph:
    return Graph(np.kron(g.adj, h.adj), loops_allowed=g.loops_allowed or h.loops_allowed)


def cartesian(g: Graph, h: Graph) -> Graph:
    eg = np.eye(g.n, dtype=bool)
    eh = np.eye(h.n, dtype=bool)
    return Graph(np.kron(g.adj, eh) | np.kron(eg, h.adj))


def line_graph(g: Graph) -> Graph:
    edges = g.edges()
    m = len(edges)
    adj = np.zeros((m, m), dtype=bool)
    for x in range(m):
        ex = set(edges[x])
        for y in range(x + 1, m):
            if ex & set(edges[y]):
                adj[x, y] = adj[y, x] = True
    return Graph(adj)


def complement(g: Graph, loops: bool = False) -> Graph:
    """J - A - I normally; J - A (diagonal flipped) when loops=True."""
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
        neg = tuple((-c) % m for c, m in zip(t, moduli))
        if neg not in conn:
            raise ValueError(f"connection set not closed under negation: {t}")
    elements = list(iter_product(*[range(m) for m in moduli]))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    adj = np.zeros((n, n), dtype=bool)
    for i, x in enumerate(elements):
        for s in conn:
            y = tuple((xc + sc) % m for xc, sc, m in zip(x, s, moduli))
            adj[i, index[y]] = True
    return Graph(adj)


def gp_graph(k: int, q: int) -> Graph:
    """Cayley graph on GF(q) whose connection set is the k-th power residues."""
    field = GF(q)
    if (q - 1) % k != 0:
        raise ValueError(f"k={k} must divide q - 1 = {q - 1}")
    if field.p != 2 and ((q - 1) // k) % 2 != 0:
        raise ValueError(
            f"power residue set R_{k} in GF({q}) is not symmetric "
            "(need (q-1)/k even or characteristic 2)"
        )
    residues = field.power_residues(k)
    n = q
    adj = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for r in residues:
            y = field.add(x, r)
            adj[x, y] = True
    return Graph(adj)


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


# -- numeric spectrum ------------------------------------------------------------------


def numeric_spectrum(g: Graph) -> Spectrum:
    """All eigenvalues by round-robin Jacobi, merged into a Spectrum of certified entries.

    A merged group sits at the midpoint of its computed values.  Its radius
    is the solver's error bound (each true eigenvalue lies that close to its
    computed value) plus half the group's spread, and never below
    ``NUMERIC_RADIUS``.
    """
    if g.n > MAX_EIGEN_N:
        raise ValueError(f"n={g.n} above the {MAX_EIGEN_N} eigensolver cap")
    result = jacobi_eigenvalues(g.adj.astype(np.float64), full=True)
    bound = result.off_norm + result.rounding
    # adjacent values closer than the merge threshold (or overlapping at the
    # certified radius scale) collapse into one entry
    gap = max(NUMERIC_MERGE, 4.1 * NUMERIC_RADIUS)
    groups: list[list[float]] = []
    last = None
    for v in result.values:
        if last is not None and v - last <= gap:
            groups[-1].append(v)
        else:
            groups.append([v])
        last = v
    entries = [(Eig.from_approx((grp[0] + grp[-1]) / 2,
                                max(NUMERIC_RADIUS, bound + (grp[-1] - grp[0]) / 2)), len(grp))
               for grp in groups]
    entries.reverse()
    return Spectrum(entries, n=g.n, principal=0)


# -- predicates -------------------------------------------------------------------------


def regularity(g: Graph) -> Optional[int]:
    degs = g.degrees()
    k = int(degs[0]) if g.n else 0
    return k if np.all(degs == k) else None


def is_bipartite(g: Graph) -> bool:
    """Two-coloring by BFS; purely combinatorial."""
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


@dataclass(frozen=True)
class SrgCounts:
    n: int
    k: int
    e: int
    d: int


def srg_detect(g: Graph) -> Optional[SrgCounts]:
    """Combinatorial strong-regularity check over all vertex pairs.

    Complete and empty graphs return None, as does anything irregular or
    with non-constant common-neighbor counts.
    """
    if g.loops_allowed and np.any(np.diag(g.adj)):
        raise ValueError("srg detection expects a loopless graph")
    if g.n > MAX_COMBINATORIAL_N:
        raise ValueError(f"n={g.n} above the {MAX_COMBINATORIAL_N} combinatorial cap")
    k = regularity(g)
    if k is None or k == 0 or k == g.n - 1:
        return None
    a = g.adj.astype(np.int32)
    common = a @ a
    iu = np.triu_indices(g.n, k=1)
    adjacent = g.adj[iu]
    cvals = common[iu]
    e_vals = np.unique(cvals[adjacent])
    d_vals = np.unique(cvals[~adjacent])
    if len(e_vals) != 1 or len(d_vals) != 1:
        return None
    return SrgCounts(n=g.n, k=k, e=int(e_vals[0]), d=int(d_vals[0]))


def is_isospectral(g1: Graph, g2: Graph, tol: float = 1e-7) -> bool:
    if g1.n != g2.n:
        return False
    v1 = jacobi_eigenvalues(g1.adj.astype(np.float64))
    v2 = jacobi_eigenvalues(g2.adj.astype(np.float64))
    return bool(np.all(np.abs(v1 - v2) <= tol))


# -- text format ---------------------------------------------------------------------


def write_graph(g: Graph) -> str:
    lines = [f"{g.n} {1 if g.loops_allowed else 0}"]
    us, vs = np.nonzero(np.triu(g.adj, k=0 if g.loops_allowed else 1))
    lines.extend(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"line 1: expected 'n loops', got {lines[0]!r}")
    n = int(head[0])
    loops = head[1] == "1"
    edges = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln_no}: expected 'u v', got {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {ln_no}: vertex out of range")
        if u == v and not loops:
            raise ValueError(f"line {ln_no}: loop in a loopless graph")
        edges.append((u, v))
    return Graph.from_edges(n, edges, loops_allowed=loops)
