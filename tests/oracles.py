"""Test oracles: independent routes to facts the package computes itself.

Each one is written without the package's algebra where it can be: srg
parameters from common-neighbour counts, isospectrality from LAPACK,
surds parsed back from their canonical text, multiplicative orders by
trying every divisor of q - 1.  The exception is the generic exact
route, which is the surd path itself, kept as the reference for the
integral view that bypasses it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

import numpy as np

from equigraph.exact import ExactValue, Surd, exact_sum
from equigraph.graphs import Graph, regularity
from equigraph.spectra import Eig, Spectrum, _point, delta_branch


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
            eig = Eig.from_exact(parse_surd(value))
        else:
            eig = Eig.from_approx(value["approx"], value["radius"])
        entries.append((eig, int(item["mult"])))
    return Spectrum(entries, n=int(obj["n"]), principal=int(obj["principal"]))


def multiplicative_order(f, x: int) -> int:
    """The order of x != 0 in the multiplicative group of the field f."""
    return next(e for e in range(1, f.q) if (f.q - 1) % e == 0 and f.pow(x, e) == 1)


def delta_of(x: Eig, assume_exact: bool = False) -> ExactValue:
    """The piecewise-linear term ``|1 + x| - |x|`` of one eigenvalue."""
    branch = delta_branch(x, assume_exact)
    if branch == "S":
        return exact_sum([(_point(x) * 2 + 1, 1)])
    return ExactValue.from_rational(-1 if branch == "sigma-" else 1)


def generic_exact_route(values: list[tuple[Surd, int]], principal: int, k: int,
                        loops: bool = False) -> dict:
    """What ``discrepancy``, ``energy``, ``complement_spectrum`` and
    ``check_equienergetic`` give for an exact spectrum, through the surd
    path alone: one ``delta_branch`` and ``delta_of`` per entry of Sp' and
    ``exact_sum`` over ``Surd``s.

    ``values`` are distinct (Surd, mult) pairs sorted descending, and
    ``principal`` indexes the degree entry among them.
    """
    n = sum(m for _, m in values)
    sp = [(x, m - (i == principal)) for i, (x, m) in enumerate(values)]
    sp = [(x, m) for x, m in sp if m]
    counts = {"sigma+": 0, "sigma-": 0, "m0": 0, "T": 0}
    s_terms = []
    delta_terms = []
    for x, m in sp:
        eig = Eig.from_exact(x)
        branch = delta_branch(eig)
        if branch == "S":
            s_terms.append((x * 2 + 1, m))
        else:
            counts[branch] += m
        delta_terms += [(d, c * m) for d, c in delta_of(eig).terms]
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
        "complement_principal": next(i for i, (y, _) in enumerate(complement) if y == degree),
        "equal": equal, "routes_agree": (e_graph == e_comp) == equal,
    }
