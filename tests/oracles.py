"""Test oracles: independent routes to facts the package computes itself.

Each one is written without the package's algebra where it can be: srg
parameters from common-neighbour counts, isospectrality from LAPACK,
surds parsed back from their canonical text, multiplicative orders by
trying every divisor of q - 1, factorizations from a sieve.  The
exceptions are the generic exact route, which is the surd path itself,
kept as the reference for the int values that bypass it, the
theorem's tuples listed one vertex count at a time, kept as the
reference for the generator that lists a range, and the Householder
column loop that read each trailing norm from the block, kept as the
bit-for-bit reference for the loop that keeps a running norm.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt
from typing import Optional, Union

import numpy as np

from equigraph.exact import ExactValue, Surd, exact_sum
from equigraph.graphs import Graph, regularity
from equigraph.spectra import Eig, Spectrum, _point, delta_branch
from equigraph.srg import Conference, SrgParams, family_params, latin_square_params


def tridiagonalize_reference(a: np.ndarray, tol: float) -> tuple[list[float], list[float], float, float]:
    """``jacobi._tridiagonalize`` as it was before it kept a running trailing
    norm: each reflection reads ||A_k||_F from the block, and the rank-2
    update adds its own transpose.  Reduces ``a`` in place."""
    n = a.shape[0]
    e = [0.0] * max(n - 1, 0)
    dropped = 0.0
    units = 0.0
    for k in range(n - 2):
        x = a[k, k + 1:]                # row k, which is column k
        x0 = float(x[0])
        tail = math.sqrt(float(x[1:] @ x[1:]))
        if tail <= tol:
            dropped += tail
            e[k] = x0
            continue
        trailing = a[k:, k:]
        trailing_norm = math.sqrt(float(np.einsum("ij,ij->", trailing, trailing)))
        mu = math.copysign(math.hypot(x0, tail), x0)
        v = x.copy()
        v[0] = v0 = x0 + mu
        beta = 1.0 / (mu * v0)
        block = a[k + 1:, k + 1:]
        w = block @ v
        w *= beta
        w -= (0.5 * beta * float(w @ v)) * v
        # v w^T + w v^T, exactly symmetric
        update = np.multiply.outer(v, w)
        update += update.T
        block -= update
        e[k] = -mu
        units += (6 * (n - k - 1) + 30) * trailing_norm
    if n >= 2:
        e[n - 2] = float(a[n - 2, n - 1])
    return a.diagonal().tolist(), e, dropped, units


def srg_counts(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """(n, k, e, d) when g is strongly regular, from common-neighbour counts
    over all vertex pairs; None for complete, empty and irregular graphs and
    for non-constant counts."""
    k = regularity(g)
    if k is None or k == 0 or k == g.n - 1:
        return None
    a = g.adj.astype(np.int32)
    common = (a @ a)[np.triu_indices(g.n, k=1)]
    adjacent = g.adj[np.triu_indices(g.n, k=1)]
    e_vals, d_vals = np.unique(common[adjacent]), np.unique(common[~adjacent])
    if len(e_vals) != 1 or len(d_vals) != 1:
        return None
    return g.n, k, int(e_vals[0]), int(d_vals[0])


def is_isospectral(g1: Graph, g2: Graph, tol: float = 1e-7) -> bool:
    if g1.n != g2.n:
        return False
    v1 = np.linalg.eigvalsh(g1.adj.astype(np.float64))
    v2 = np.linalg.eigvalsh(g2.adj.astype(np.float64))
    return bool(np.all(np.abs(v1 - v2) <= tol))


def write_graph(g: Graph) -> str:
    """The graph file text that ``graphs.read_graph`` parses."""
    lines = [f"{g.n} {1 if g.loops_allowed else 0}"]
    us, vs = np.nonzero(np.triu(g.adj, k=0 if g.loops_allowed else 1))
    lines.extend(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
    return "\n".join(lines) + "\n"


_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*$")
_RADICAL_RE = re.compile(
    r"^\s*(?:(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<op>[+-])\s*)?"
    r"(?P<bsign>[+-])?\s*(?:(?P<b>\d+(?:/\d+)?)\s*\*\s*)?sqrt\((?P<d>\d+)\)\s*$"
)


def parse_surd(text: str) -> Surd:
    """Parse the canonical rendering of ``exact.format_surd`` back, bit-exactly."""
    m = _RATIONAL_RE.match(text)
    if m:
        return Surd(Fraction(m.group(1)))
    m = _RADICAL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse surd string: {text!r}")
    a = Fraction(m.group("a")) if m.group("a") is not None else Fraction(0)
    b = Fraction(m.group("b")) if m.group("b") is not None else Fraction(1)
    if m.group("op") == "-" or m.group("bsign") == "-":
        b = -b
    return Surd(a, b, int(m.group("d")))


def read_spectrum_json(obj: dict) -> Spectrum:
    """The Spectrum that ``Spectrum.to_json_dict`` rendered as ``obj``."""
    entries = []
    for item in obj["entries"]:
        value = item["value"]
        if isinstance(value, str):
            eig = parse_surd(value)
        else:
            eig = Eig.from_approx(value["approx"], value["radius"])
        entries.append((eig, int(item["mult"])))
    spec = Spectrum(entries)
    if (spec.n, 0) != (obj["n"], obj["principal"]):
        raise ValueError(f"n={obj['n']} and principal={obj['principal']} do not fit {spec!r}")
    return spec


def per_n_theorem_tuples(n: int) -> list[SrgParams]:
    """The theorem's primitive tuples on one vertex count n >= 0, as a set
    sorted by (k, d): the conference tuple when n = 4d + 1 >= 5, and OA(r, m)
    for 2 <= m < r when n = r^2.  This is how ``srg.theorem_tuples`` was
    written before the tuples of a range came from one generator."""
    found = set()
    if n % 4 == 1 and n >= 5:
        found.add(family_params(Conference(d=(n - 1) // 4)))
    r = isqrt(n)
    if r * r == n:
        found.update(latin_square_params(m, r) for m in range(2, r))
    return sorted(found, key=lambda p: (p.k, p.d))


def multiplicative_order(f, x: int) -> int:
    """The order of x != 0 in the multiplicative group of the field f."""
    return next(e for e in range(1, f.q) if (f.q - 1) % e == 0 and f.pow(x, e) == 1)


def _smallest_prime_factors(m: int) -> np.ndarray:
    """A sieve: entry i is the least prime factor of 2 <= i < m."""
    spf = np.zeros(m, dtype=np.int64)
    for p in range(2, isqrt(m - 1) + 1):
        if not spf[p]:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    primes = np.flatnonzero(spf == 0)
    spf[primes] = primes
    return spf


_SPF = _smallest_prime_factors(10 ** 5)
_PRIMES = np.flatnonzero(_SPF == np.arange(_SPF.size))[2:]  # 0 and 1 are not primes


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of 1 <= n < 10**10, in increasing p.

    Below 10**5 it walks the sieve.  Above, every prime below 10**5 that
    divides n is found at once; what is left after dividing them out has no
    factor up to its square root, so it is 1 or a prime.
    """
    if not 1 <= n < 10 ** 10:
        raise ValueError(f"{n} is outside [1, 10**10)")
    factors: dict[int, int] = {}
    if n < _SPF.size:
        while n > 1:
            p = int(_SPF[n])
            n //= p
            factors[p] = factors.get(p, 0) + 1
        return factors
    for p in _PRIMES[n % _PRIMES == 0].tolist():
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    if n > 1:
        factors[n] = 1
    return factors


def delta_of(x: Union[Surd, Eig], assume_exact: bool = False) -> ExactValue:
    """The piecewise-linear term ``|1 + x| - |x|`` of one eigenvalue: a
    Surd, or an Eig (an exact one is read as its Surd)."""
    if type(x) is Eig and x.exact is not None:
        x = x.exact
    branch = delta_branch(x, assume_exact)
    if branch == "S":
        return exact_sum([(_point(x) * 2 + 1, 1)])
    return ExactValue.from_rational(-1 if branch == "sigma-" else 1)


def generic_exact_route(values: list[tuple[Surd, int]], k: int, loops: bool = False) -> dict:
    """What ``discrepancy``, ``energy``, ``complement_spectrum`` and
    ``check_equienergetic`` give for an exact spectrum, through the surd
    path alone: one ``delta_branch`` and ``delta_of`` per entry of Sp' and
    ``exact_sum`` over ``Surd``s.

    ``values`` are distinct (Surd, mult) pairs sorted descending; the
    first is the degree.
    """
    n = sum(m for _, m in values)
    sp = [(x, m - (i == 0)) for i, (x, m) in enumerate(values)]
    sp = [(x, m) for x, m in sp if m]
    counts = {"sigma+": 0, "sigma-": 0, "m0": 0, "T": 0}
    s_terms = []
    delta_terms = []
    for x, m in sp:
        branch = delta_branch(x)
        if branch == "S":
            s_terms.append((x * 2 + 1, m))
        else:
            counts[branch] += m
        delta_terms += [(d, c * m) for d, c in delta_of(x).terms]
    delta = ExactValue(delta_terms)  # the generic constructor, not ExactValue.__add__
    degree = Surd(n - k if loops else n - k - 1)
    merged = {degree: 1}
    for x, m in sp:
        y = -x if loops else Surd(-1) + -x
        merged[y] = merged.get(y, 0) + m
    complement = sorted(merged.items(), key=cmp_to_key(lambda p, q: q[0].compare(p[0])))
    e_graph = exact_sum([(abs(x), m) for x, m in values])
    e_comp = exact_sum([(abs(y), m) for y, m in complement])
    equal = n == 2 * k if loops else delta == 2 * k + 1 - n
    return {
        "sigma": counts["sigma+"] - counts["sigma-"], "T": counts["T"], "m0": counts["m0"],
        "S": exact_sum(s_terms), "delta_total": delta,
        "energy": e_graph, "energy_complement": e_comp,
        "complement": complement,
        "equal": equal, "routes_agree": (e_graph == e_comp) == equal,
    }
