"""Test oracles: independent routes to facts the package computes itself.

Each one is written without the package's algebra where it can be: srg
parameters from common-neighbour counts, isospectrality from LAPACK,
surds parsed back from their canonical text, multiplicative orders by
trying every divisor of q - 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

import numpy as np

from equigraph.exact import Surd
from equigraph.graphs import Graph, regularity
from equigraph.spectra import Eig, Spectrum


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
