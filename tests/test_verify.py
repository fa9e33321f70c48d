"""The rows of the fast verify suites, claim, verdict and details, as text.

The literals were recorded from the suites themselves.  The sweeps pass
with empty details, so a second set runs them with the srg condition
inverted: every case then misses, and the details list the first six
labels of each failure list in case order.
"""

import dataclasses
import json

import pytest
from click.testing import CliRunner

from equigraph import data as D
from equigraph import srg as S
from equigraph import verify as V
from equigraph.cli import main
from equigraph.spectra import Eig, Spectrum

CAMERON = [
    ("negative-Latin-square tuples carry orthogonal-array parameters exactly when "
     "n = 2m + 1, as the conference tuple OA(2m+1, m+1) (n, m in [1,30])",
     True, "14 diagonal tuples"),
    ("integral Smith tuples never pass the equienergy condition (r in [1,20], s in "
     "[-20,-2])", True, ""),
    ("K_{mxm}, the pentagon and the 3x3 rook tuple all pass", True, ""),
    ("over the spectrally-determined catalog the accepted tuples are exactly "
     "K_{mxm}, the three conference sporadics and the rook tuples (including the "
     "3x3 one)", True, ""),
]

ROWS = {
    "verify_table1": [
        ("exactly the cube and the 3-prism are complementary equienergetic among the 13 "
         "integral cubic graphs", True, ""),
        ("their energies are 12 and 8, matching both routes", True, ""),
        ("both winning pairs are non-isospectral", True, ""),
        ("constructible census rows match their tabulated spectra", True, ""),
    ],
    "verify_table2": [
        ("exactly the cube (the crown graph with t = 4) is complementary equienergetic "
         "among the 13 distance-transitive cubic graphs, with E = 12 on both sides",
         True, "12 other rows fail"),
        ("every approximate eigenvalue is certified to radius 1e-10", True, ""),
        ("irrational-in-(-1,0) short-circuit fires on a witness spectrum; Coxeter and "
         "Biggs-Smith instead fail by exact discrepancy mismatch", True, ""),
    ],
    "verify_table3": [
        ("the three conference sporadics are self-complementary and pass", True, ""),
    ],
    "verify_table4": [
        ("all 14 non-conference sporadic rows fail with m_r > m_s and 2k + 1 < n", True, ""),
    ],
    "verify_crowns": [
        ("crown energies E = 4(t-1) on both sides, t in [2,50]", True, ""),
        ("crown and complement are non-isospectral", True, ""),
        ("crown complements are non-bipartite for t >= 3", True, ""),
    ],
    "verify_cameron": CAMERON,
    "verify_family_sweeps": [
        ("lattice tuples pass for n in [3,50]", True, ""),
        ("triangular tuples fail for n in [5,50]", True, ""),
        ("Steiner block-graph tuples fail (m in [2,8], feasible n <= 30)", True, ""),
        ("Latin-square tuples pass whenever primitive (m in [2,10], n in [m+2,40])",
         True, ""),
        ("Moore tuples fail (pentagon alone is self-complementary)", True, ""),
        ("triangle-free sporadic tuples fail", True, ""),
        ("all 14 spectrally-determined sporadic tuples fail with m_r - m_s > 0 and "
         "2k + 1 - n < 0", True, ""),
    ],
    "verify_closed_energies": [
        ("closed energies match the two case formulas (h in [-5,5], l in [1,20])", True, ""),
        ("every non-conference closed energy is divisible by 4", True, ""),
        ("conference energy equals 2d(1 + sqrt(4d+1)) for d in [1,100]", True, ""),
    ],
    "verify_gp": [
        ("cubic-residue graph on 64 field elements is equienergetic with its complement",
         True, ""),
        ("cubic-residue graph on 16 field elements is not", True, ""),
        ("closed form {21, 5^21, (-3)^42} matches the constructed graph", True, ""),
    ],
}

INVERTED = {
    "verify_table3": [(False, "Paley P(5); Paley P(13); Paley P(17)")],
    "verify_table4": [
        (False, "folded 5-cube; GQ(2,4); Hoffman-Singleton; Gewirtz; Mesner M22; "
                "Brouwer-Haemers"),
    ],
    "verify_cameron": [
        (True, "14 diagonal tuples"),
        (False, "srg(50,21,4,12); srg(27,10,1,5); srg(162,56,10,24); srg(112,30,2,10); "
                "srg(325,68,3,17)"),
        (False, "pentagon; 3x3 rook tuple"),
        (False, "Paley P(5); Paley P(13); Paley P(17); L2(3); L2(5); L2(6)"),
    ],
    "verify_family_sweeps": [
        (False, "n=3; n=4; n=5; n=6; n=7; n=8"),
        (False, "n=5; n=6; n=7; n=8; n=9; n=10"),
        (False, "(m=2,n=3); (m=2,n=4); (m=2,n=5); (m=2,n=6); (m=2,n=7); (m=2,n=8)"),
        (False, "(m=2,n=4); (m=2,n=5); (m=2,n=6); (m=2,n=7); (m=2,n=8); (m=2,n=9)"),
        (False, "pentagon; Petersen; Hoffman-Singleton; 57-regular (existence open)"),
        (False, "folded 5-cube; Gewirtz; Mesner M22; Higman-Sims"),
        (False, "folded 5-cube; GQ(2,4); Hoffman-Singleton; Gewirtz; Mesner M22; "
                "Brouwer-Haemers"),
    ],
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_suite_rows_match_the_recorded_text(name):
    rows = getattr(V, name)()
    assert [(r.claim, r.passed, r.details) for r in rows] == ROWS[name]


@pytest.mark.parametrize("name", sorted(INVERTED))
def test_sweeps_name_their_misses_in_case_order(monkeypatch, name):
    condition = S.equien_condition
    monkeypatch.setattr(S, "equien_condition", lambda p, data=None: not condition(p, data))
    rows = getattr(V, name)()
    assert [(r.passed, r.details) for r in rows] == INVERTED[name]
    assert [r.claim for r in rows] == [claim for claim, _, _ in ROWS[name]]


def test_verify_cameron_json_prints_the_rows():
    result = CliRunner().invoke(main, ["verify", "cameron", "--json"])
    assert result.exit_code == 0
    results = [{"claim": c, "passed": p, "details": d} for c, p, d in CAMERON]
    assert result.output == json.dumps(
        {"command": "verify", "suite": "cameron", "results": results}, indent=2) + "\n"


def test_the_scan_row_names_an_imprimitive_tuple_the_scan_admits(monkeypatch):
    # srg(9,6,3,6) is K_{3,3,3}, whose complement 3K_3 is disconnected
    scan = S._equien_scan

    def loose_scan(n):
        return scan(n) + [S.SrgParams(9, 6, 3, 6)] if n == 9 else scan(n)

    monkeypatch.setattr(S, "_equien_scan", loose_scan)
    row = V.verify_srg_enumeration(n_max=60, oracle_n_max=20)[-1]
    assert row.claim == "the primitive scan hits equal enumerate_equien for n <= 60"
    assert (row.passed, row.details) == (False, "srg(9,6,3,6)")


@pytest.mark.parametrize("shift", [3e-10, -3e-10])
@pytest.mark.parametrize("root", [0, 1, 2])
def test_table2_refuses_an_interval_that_brackets_no_root(monkeypatch, root, shift):
    # bisection leaves each root within half the radius of its interval's
    # centre, so a shift of three radii moves the root outside the interval
    rows = list(D.TABLE_DISTANCE_TRANSITIVE_CUBIC)
    i = next(i for i, r in enumerate(rows) if r.name == "Biggs-Smith")
    intervals = [x for x, _ in rows[i].spectrum.entries if x.exact is None]
    moved = intervals[root]
    shifted = Eig.from_approx(moved.value + shift, moved.radius)
    entries = [(shifted if x is moved else x, m) for x, m in rows[i].spectrum.entries]
    rows[i] = dataclasses.replace(rows[i], spectrum=Spectrum(entries))
    monkeypatch.setattr(D, "TABLE_DISTANCE_TRANSITIVE_CUBIC", rows)
    row = V.verify_table2()[1]
    assert row.claim == "every approximate eigenvalue is certified to radius 1e-10"
    assert (row.passed, row.details) == (
        False, f"Biggs-Smith: {shifted} brackets no root of x^3 + 3x^2 - 3")
