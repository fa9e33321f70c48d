"""Curated spectra and parameter catalogs for the verification suites.

Sources are the classical classification results:

* connected integral cubic graphs: Bussemaker-Cvetkovic (1976) and
  Schwenk (1978), spectra as tabulated in Brouwer-Haemers, "Spectra of
  Graphs";
* distance-transitive cubic graphs: Biggs-Smith (1971) plus the Tutte
  12-cage (Biggs-Boshier-Shawe-Taylor, 1986);
* strongly regular graphs determined by their spectrum: the catalog of
  Brouwer-Haemers section 14.5.

Rows whose defining construction is standard are built concretely by
``graphs`` and double-checked numerically; the rest carry their known
spectra as data.  Two tabulation slips in the source tables are fixed
here and flagged in the row notes: the prism-times-cycle row (its
printed multiplicities summed to 10 instead of 12) and the Foster graph
row (corrected to the intersection-array spectrum, which passes the
trace identities; the printed one did not).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .exact import Surd
from .spectra import Eig, Spectrum
from . import graphs as G
from .srg import SrgParams

__all__ = [
    "CuratedGraph",
    "TABLE_INTEGRAL_CUBIC",
    "TABLE_DISTANCE_TRANSITIVE_CUBIC",
    "DS_CONFERENCE",
    "DS_NONCONFERENCE",
    "MOORE_TUPLES",
    "TRIANGLE_FREE_SPORADIC",
    "BIGGS_SMITH_CUBIC",
    "polynomial_value",
    "bisect_root",
    "exact_spectrum_of_family",
    "ds_nonconference_params",
]

BISECT_RADIUS = 1e-10
BIGGS_SMITH_CUBIC = [-3, 0, 3, 1]  # x^3 + 3x^2 - 3, ascending


def polynomial_value(coeffs: list[int], x: Fraction) -> Fraction:
    """The integer polynomial with ascending ``coeffs`` at x, exactly."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bisect_root(coeffs: list[int], lo: Fraction, hi: Fraction) -> Union[Surd, Eig]:
    """Isolate one root of an integer polynomial by bisection.

    ``coeffs`` are ascending; the interval must bracket a sign change.
    Returns a rational root that an endpoint or a midpoint hits exactly as
    a Surd, and otherwise a certified interval of radius ``BISECT_RADIUS``.
    """
    flo, fhi = polynomial_value(coeffs, lo), polynomial_value(coeffs, hi)
    if flo == 0:
        return Surd(lo)
    if fhi == 0:
        return Surd(hi)
    if (flo > 0) == (fhi > 0):
        raise ValueError("interval does not bracket a root")
    width = Fraction(BISECT_RADIUS).limit_denominator(10 ** 15)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = polynomial_value(coeffs, mid)
        if fmid == 0:
            return Surd(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    mid = (lo + hi) / 2
    return Eig.from_approx(float(mid), BISECT_RADIUS)


@dataclass(frozen=True)
class CuratedGraph:
    name: str
    n: int
    k: int
    spectrum: Spectrum
    build: Optional[Callable[[], "G.Graph"]]
    bipartite: bool
    note: str = ""


# the five rows that both cubic tables hold
_K4 = CuratedGraph("K_4", 4, 3, Spectrum([(3, 1), (-1, 3)]), lambda: G.complete(4), False)
_K33 = CuratedGraph("K_{3,3}", 6, 3, Spectrum([(3, 1), (0, 4), (-3, 1)]),
                    lambda: G.complete_bipartite(3, 3), True)
_Q3 = CuratedGraph("Q_3", 8, 3, Spectrum([(3, 1), (1, 3), (-1, 3), (-3, 1)]), G.cube_q3, True)
_PETERSEN = CuratedGraph("Petersen", 10, 3, Spectrum([(3, 1), (1, 5), (-2, 4)]), G.petersen, False)
_DESARGUES = CuratedGraph("Desargues", 20, 3,
                          Spectrum([(3, 1), (2, 4), (1, 5), (-1, 5), (-2, 4), (-3, 1)]),
                          lambda: G.kronecker(G.petersen(), G.complete(2)), True)


def _integral_cubic_rows() -> list[CuratedGraph]:
    rows = [
        _K33,
        _Q3,
        CuratedGraph(
            "K*_{2,3} x K_2", 10, 3,
            Spectrum([(3, 1), (2, 1), (1, 2), (0, 2), (-1, 2), (-2, 1), (-3, 1)]),
            None, True,
            note="tensor double of a multigraph-like base; carried as data"),
        CuratedGraph(
            "C_6 x K_2 (prism)", 12, 3,
            Spectrum([(3, 1), (2, 2), (1, 1), (0, 4), (-1, 1), (-2, 2), (-3, 1)]),
            lambda: G.cartesian(G.cycle(6), G.complete(2)), True,
            note="printed multiplicities summed to 10, not 12; spectrum "
                 "recomputed from the cartesian-product eigenvalue sums"),
        _DESARGUES,
        CuratedGraph(
            "T* x K_2", 20, 3,
            Spectrum([(3, 1), (2, 4), (1, 5), (-1, 5), (-2, 4), (-3, 1)]),
            None, True,
            note="isospectral mate of Desargues; carried as data"),
        CuratedGraph(
            "Sigma x K_2", 24, 3,
            Spectrum([(3, 1), (2, 6), (1, 3), (0, 4), (-1, 3), (-2, 6), (-3, 1)]),
            None, True),
        CuratedGraph(
            "Tutte-Coxeter (GQ(2,2))", 30, 3,
            Spectrum([(3, 1), (2, 9), (0, 10), (-2, 9), (-3, 1)]),
            None, True),
        _K4,
        CuratedGraph(
            "K_3 x K_2 (3-prism)", 6, 3,
            Spectrum([(3, 1), (1, 1), (0, 2), (-2, 2)]),
            G.prism_k3, False),
        _PETERSEN,
        CuratedGraph(
            "(Petersen x K_2)/sigma", 10, 3,
            Spectrum([(3, 1), (2, 1), (1, 3), (-1, 2), (-2, 3)]),
            None, False),
        CuratedGraph(
            "Sigma", 12, 3,
            Spectrum([(3, 1), (2, 3), (0, 2), (-1, 3), (-2, 3)]),
            None, False),
    ]
    return rows


def _sqrt_entries(c: int, d: int, mult: int) -> list[tuple[Surd, int]]:
    """Entries +-c*sqrt(d) with the same multiplicity each."""
    return [(Surd(0, c, d), mult), (Surd(0, -c, d), mult)]


def _distance_transitive_rows() -> list[CuratedGraph]:
    half = Fraction(1, 2)
    rows = [
        _K4,
        _K33,
        _Q3,
        _PETERSEN,
        CuratedGraph("Heawood", 14, 3,
                     Spectrum([(Surd(3), 1)] + _sqrt_entries(1, 2, 6) + [(Surd(-3), 1)]),
                     None, True,
                     note="the incidence graph of the Fano plane has "
                          "eigenvalues +-sqrt(2), not the printed +-sqrt(6) "
                          "(which fails sum(eig^2) = 2|E|)"),
        CuratedGraph("Pappus", 18, 3,
                     Spectrum([(Surd(3), 1)] + _sqrt_entries(1, 3, 6)
                              + [(Surd(0), 4), (Surd(-3), 1)]),
                     None, True),
        CuratedGraph("dodecahedron", 20, 3,
                     Spectrum([(Surd(3), 1), (Surd(0, 1, 5), 3), (Surd(1), 5),
                               (Surd(0), 4), (Surd(0, -1, 5), 3), (Surd(-2), 4)]),
                     None, False),
        _DESARGUES,
        CuratedGraph("Coxeter", 28, 3,
                     Spectrum([(Surd(3), 1), (Surd(-1, 1, 2), 6), (Surd(2), 8),
                               (Surd(-1, -1, 2), 6), (Surd(-1), 7)]),
                     None, False,
                     note="printed as 1 +- sqrt(2), which makes the trace 24; "
                          "the actual eigenvalues are -1 +- sqrt(2)"),
        CuratedGraph("Tutte-Coxeter", 30, 3,
                     Spectrum([(3, 1), (2, 9), (0, 10), (-2, 9), (-3, 1)]),
                     None, True),
        CuratedGraph("Foster", 90, 3,
                     Spectrum([(Surd(3), 1)] + _sqrt_entries(1, 6, 12)
                              + [(Surd(2), 9), (Surd(1), 18), (Surd(0), 10),
                                 (Surd(-1), 18), (Surd(-2), 9), (Surd(-3), 1)]),
                     None, True,
                     note="printed table row was corrupted (multiplicities "
                          "summed to 48); spectrum taken from the "
                          "intersection array, verified by trace identities"),
        CuratedGraph("Biggs-Smith", 102, 3,
                     Spectrum([
                         (3, 1),
                         (Surd(half, half, 17), 9),
                         (2, 18),
                         (bisect_root(BIGGS_SMITH_CUBIC, Fraction(0), Fraction(1)), 16),
                         (0, 17),
                         (bisect_root(BIGGS_SMITH_CUBIC, Fraction(-3, 2), Fraction(-1)), 16),
                         (Surd(half, -half, 17), 9),
                         (bisect_root(BIGGS_SMITH_CUBIC, Fraction(-3), Fraction(-2)), 16),
                     ]),
                     None, False,
                     note="the roots (1 +- sqrt(17))/2 of x^2 - x - 4 carried "
                          "exactly; the roots of x^3 + 3x^2 - 3 carried as "
                          "isolating intervals, bisected to radius 1e-10"),
        CuratedGraph("Tutte 12-cage", 126, 3,
                     Spectrum([(Surd(3), 1)] + _sqrt_entries(1, 6, 21)
                              + _sqrt_entries(1, 2, 27)
                              + [(Surd(0), 28), (Surd(-3), 1)]),
                     None, True),
    ]
    return rows


TABLE_INTEGRAL_CUBIC = _integral_cubic_rows()
TABLE_DISTANCE_TRANSITIVE_CUBIC = _distance_transitive_rows()


# DS strongly regular graphs of conference type: name and the defining d
DS_CONFERENCE = [
    ("Paley P(5)", 1),
    ("Paley P(13)", 3),
    ("Paley P(17)", 4),
]

# DS strongly regular graphs, non-conference sporadics: (n, k, r, m_r, s, m_s, name)
DS_NONCONFERENCE = [
    (16, 5, 1, 10, -3, 5, "folded 5-cube"),
    (27, 10, 1, 20, -5, 6, "GQ(2,4)"),
    (50, 7, 2, 28, -3, 21, "Hoffman-Singleton"),
    (56, 10, 2, 35, -4, 20, "Gewirtz"),
    (77, 16, 2, 55, -6, 21, "Mesner M22"),
    (81, 20, 2, 60, -7, 20, "Brouwer-Haemers"),
    (100, 22, 2, 77, -8, 22, "Higman-Sims"),
    (105, 32, 2, 84, -10, 20, "flags of PG(2,4)"),
    (112, 30, 2, 90, -10, 21, "GQ(3,9)"),
    (120, 42, 2, 99, -12, 20, "001.. in S(5,8,24)"),
    (126, 50, 2, 105, -13, 20, "Goethals"),
    (162, 56, 2, 140, -16, 21, "local McLaughlin"),
    (176, 70, 2, 154, -18, 21, "01.. in S(5,8,24)"),
    (275, 112, 2, 252, -28, 22, "McLaughlin"),
]


def ds_nonconference_params(row) -> SrgParams:
    """Recover (n, k, e, d) from the spectral data of a catalog row."""
    n, k, r, m_r, s, m_s, _ = row
    d = k + r * s
    e = d + r + s
    return SrgParams(n, k, e, d)


# Moore graph tuples (girth-5 strongly regular)
MOORE_TUPLES = [
    (SrgParams(5, 2, 0, 1), "pentagon"),
    (SrgParams(10, 3, 0, 1), "Petersen"),
    (SrgParams(50, 7, 0, 1), "Hoffman-Singleton"),
    (SrgParams(3250, 57, 0, 1), "57-regular (existence open)"),
]

# Known triangle-free strongly regular graphs beyond the Moore graphs
TRIANGLE_FREE_SPORADIC = [
    (SrgParams(16, 5, 0, 2), "folded 5-cube"),
    (SrgParams(56, 10, 0, 2), "Gewirtz"),
    (SrgParams(77, 16, 0, 4), "Mesner M22"),
    (SrgParams(100, 22, 0, 6), "Higman-Sims"),
]


# -- closed-form exact spectra of the named families ---------------------------------


def exact_spectrum_of_family(family: str, **params) -> Optional[Spectrum]:
    """Closed-form exact spectrum of a named family, or None where it has none.

    The family's guard runs first, so this raises ValueError exactly when
    ``graphs.gen_named`` does.
    """
    fam, args = G.family_args(family, params)
    fam.guard(*args)
    return fam.spectrum(*args)
