"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced (plain ``pytest`` captures them until a failure).

Three claims of the source material are refuted by exact arithmetic and
are checked here in their corrected form:

* the distance-transitive cubic census contains the cube, whose spectrum
  {3, 1^3, -1^3, -3} is that of the crown graph with t = 4, so the
  bipartite theorem makes it complementary equienergetic (E = 12 on both
  sides); exactly that row of the 13 passes;
* equating NL(n, m) = srg(n^2, m(n+1), m^2+3m-n, m(m+1)) with
  OA(n, m') forces m' = m + 1 (from d) and then n = 2m + 1 (from k), so a
  negative-Latin-square tuple carries orthogonal-array parameters exactly
  on that diagonal, where it is the conference tuple OA(2m+1, m+1);
* for three fields the search condition is
  1/(q1-1) + 1/(q2-1) + 1/(q3-1) = 1, whose unit-fraction solutions
  (2,3,6), (2,4,4) and (3,3,3) give the prime-power triples (3,4,7),
  (3,5,5) and (4,4,4).
"""

import time
from fractions import Fraction

import pytest

from equigraph import rings as R
from equigraph import srg as S
from equigraph import verify as V

_RESULTS: list[str] = []
_CACHE: dict[str, tuple[list, float]] = {}


def _suite(name, fn, *args):
    if name not in _CACHE:
        t0 = time.perf_counter()
        results = fn(*args)
        _CACHE[name] = (results, time.perf_counter() - t0)
    return _CACHE[name]


def _record(criterion: str, results, elapsed: float, only=None):
    rows = results if only is None else [results[i] for i in only]
    ok = all(r.passed for r in rows)
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion} ({elapsed:.2f}s)"
    _RESULTS.append(line)
    print(line)
    for r in rows:
        if not r.passed:
            print(f"       failed claim: {r.claim}: {r.details}")
    assert ok, "; ".join(f"{r.claim}: {r.details}" for r in rows if not r.passed)


def test_criterion_01_crown_family():
    results, elapsed = _suite("crowns", V.verify_crowns, 50)
    _record("criterion 1: crown family, E = 4(t-1) exactly for t in [2,50]",
            results, elapsed)
    assert elapsed < 1.0


def test_criterion_02_integral_cubic_census():
    results, elapsed = _suite("table1", V.verify_table1)
    _record("criterion 2: integral cubic census (cube and 3-prism only)",
            results, elapsed)
    assert elapsed < 1.0


def test_criterion_03_distance_regular_census_as_pinned():
    """Exactly the cube passes among the 13 distance-transitive cubic graphs.

    The cube sits in both censuses; its spectrum is that of the crown
    graph with t = 4, so it is complementary equienergetic with E = 12
    (criterion 2 requires exactly that).  The row fails if the cube does
    not pass or if any of the other 12 rows does.
    """
    results, elapsed = _suite("table2", V.verify_table2)
    _record("criterion 3a: the cube (crown t = 4, E = 12) is the only "
            "equienergetic row of the distance-transitive census",
            results, elapsed, only=[0])


def test_criterion_03_interval_analysis():
    results, elapsed = _suite("table2", V.verify_table2)
    _record("criterion 3b: exact sign analysis of isolating intervals at "
            "radius 1e-10", results, elapsed, only=[1, 2])
    assert elapsed < 1.0


def test_criterion_04_srg_trichotomy_and_oracle():
    results, elapsed = _suite("enum", V.verify_srg_enumeration, 2500, 400)
    _record("criterion 4: trichotomy at n <= 2500, OA closure, "
            "direct-energy oracle at n <= 400", results, elapsed)
    assert elapsed < 8.0


def test_criterion_05_closed_form_energies():
    results, elapsed = _suite("energies", V.verify_closed_energies)
    _record("criterion 5: closed-form energies (case formulas, 4-divisibility, "
            "conference surds)", results, elapsed)
    assert elapsed < 1.0


def test_criterion_06_family_sweeps():
    results, elapsed = _suite("sweeps", V.verify_family_sweeps)
    _record("criterion 6: lattice/triangular/Steiner/Latin-square/Moore/"
            "triangle-free/sporadic sweeps", results, elapsed)
    assert elapsed < 2.0


def test_criterion_07_gp_graphs():
    results, elapsed = _suite("gp", V.verify_gp)
    _record("criterion 7: cubic-residue graphs on 16 and 64 field elements",
            results, elapsed)
    assert elapsed < 10.0


def test_criterion_08_negative_latin_square_as_pinned():
    """NL(n, m) passes oa_params exactly when n = 2m + 1, for n, m in [1,30].

    NL(2m+1, m) equals OA(2m+1, m+1), the square-order conference tuple
    with d = m(m+1) (srg(9,4,1,2) is simultaneously NL(3,1) and OA(3,2)).
    The row fails on any off-diagonal hit, on a missing diagonal tuple,
    or on a diagonal tuple that is not that conference OA tuple.
    """
    results, elapsed = _suite("cameron", V.verify_cameron)
    _record("criterion 8a: negative-Latin-square tuples carry OA parameters "
            "exactly on the n = 2m+1 diagonal, as conference tuples",
            results, elapsed, only=[0])


def test_criterion_08_smith_and_c5():
    results, elapsed = _suite("cameron", V.verify_cameron)
    _record("criterion 8b: Smith tuples never pass; C(5) and spectrally-"
            "determined catalogs accept exactly the expected tuples",
            results, elapsed, only=[1, 2, 3])
    assert elapsed < 2.0


def test_criterion_09_unitary_cayley_even():
    results, elapsed = _suite("rings_even", V.verify_rings_even, 4096)
    _record("criterion 9: even factor counts up to order 4096 pass exactly "
            "for two-field products, both routes agreeing", results, elapsed)
    assert elapsed < 6.0


def test_criterion_10_field_search_as_pinned():
    """search_field_products(3, 16) = [(3,4,7), (3,5,5), (4,4,4)].

    The field-product condition for three fields is
    1/(q1-1) + 1/(q2-1) + 1/(q3-1) = 1; its unit-fraction solutions
    (2,3,6), (2,4,4) and (3,3,3) give the expected triples, derived
    independently of the search.  (3,4,7) is also verified equienergetic
    by the discrepancy route, the closed subset-sum route and by direct
    construction of the 84-vertex graph (E = 288 on both sides).
    """
    results, elapsed = _suite("rings_odd", V.verify_rings_odd)
    _record("criterion 10a: triple-field search returns exactly the three "
            "unit-fraction triples (3,4,7), (3,5,5), (4,4,4)", results,
            elapsed, only=[0])


def test_criterion_10_remaining_clauses():
    results, elapsed = _suite("rings_odd", V.verify_rings_odd)
    _record("criterion 10b/c: five equal fields impossible; local profiles "
            "pass exactly when the ideal is as large as the residue field",
            results, elapsed, only=[1, 2])
    assert elapsed < 5.0


def test_criterion_11_oracle_coherence():
    results, elapsed = _suite("coherence", V.verify_oracle_coherence)
    _record("criterion 11: numeric eigensolver matches every exact spectrum "
            "(within certified radii, exact multiplicity grouping)", results, elapsed)
    assert elapsed < 1.0


def test_zz_summary():
    print()
    print("=" * 72)
    for line in _RESULTS:
        print(line)
    print("=" * 72)
