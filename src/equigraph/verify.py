"""Self-contained verification suites behind `equigraph verify` and the
acceptance tests.

Each suite returns a list of CheckResult rows; a row is one claim with
its verdict and a short detail string.  No suite reads anything beyond
the embedded catalogs in ``data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import data as D
from . import graphs as G
from . import rings as R
from . import srg as S
from .exact import ExactValue, Surd
from .fields import is_prime_power
from .spectra import (
    Eig,
    Spectrum,
    check_equienergetic,
    complement_spectrum,
    energy,
    spectra_match,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "has_exact_irrational_in_unit_neg"]


@dataclass(frozen=True)
class CheckResult:
    claim: str
    passed: bool
    details: str = ""


def _all(claim: str, failures: list[str], detail_ok: str = "") -> CheckResult:
    if failures:
        return CheckResult(claim, False, "; ".join(failures[:6]))
    return CheckResult(claim, True, detail_ok)


def has_exact_irrational_in_unit_neg(spectrum: Spectrum) -> bool:
    """True when some exact irrational eigenvalue lies strictly inside (-1, 0)."""
    return any(type(x) is Surd and not x.is_rational and x.sign() < 0
               and x.compare(Surd(-1)) > 0 for x, _ in spectrum.values)


# -- crowns (bipartite family) ------------------------------------------------------


def verify_crowns(t_max: int = 50) -> list[CheckResult]:
    energy_fail, iso_fail, bip_fail = [], [], []
    for t in range(2, t_max + 1):
        spec = D.exact_spectrum_of_family("crown", t=t)
        expected = ExactValue.from_rational(4 * (t - 1))
        comp = complement_spectrum(spec, k=t - 1)
        if not (energy(spec) == expected and energy(comp) == expected):
            energy_fail.append(f"t={t}")
        if spec == comp:
            iso_fail.append(f"t={t}")
        comp_graph = G.complement(G.crown(t))
        if t >= 3 and G.is_bipartite(comp_graph):
            bip_fail.append(f"t={t}")
        if not check_equienergetic(spec, k=t - 1).equal:
            energy_fail.append(f"criterion t={t}")
    return [
        _all(f"crown energies E = 4(t-1) on both sides, t in [2,{t_max}]", energy_fail),
        _all("crown and complement are non-isospectral", iso_fail),
        _all("crown complements are non-bipartite for t >= 3", bip_fail),
    ]


# -- cubic censuses -------------------------------------------------------------------


def verify_table1() -> list[CheckResult]:
    expected_equal = {"Q_3": 12, "K_3 x K_2 (3-prism)": 8}
    wrong_verdict, wrong_energy, iso_fail, construct_fail = [], [], [], []
    for row in D.TABLE_INTEGRAL_CUBIC:
        report = check_equienergetic(row.spectrum, k=3)
        should_pass = row.name in expected_equal
        if report.equal != should_pass:
            wrong_verdict.append(row.name)
        if should_pass:
            target = ExactValue.from_rational(expected_equal[row.name])
            if report.energy != target or report.energy_complement != target:
                wrong_energy.append(row.name)
            if row.spectrum == complement_spectrum(row.spectrum, k=3):
                iso_fail.append(row.name)
        if row.build is not None:
            if not spectra_match(G.numeric_spectrum(row.build()), row.spectrum):
                construct_fail.append(row.name)
    return [
        _all("exactly the cube and the 3-prism are complementary equienergetic "
             "among the 13 integral cubic graphs", wrong_verdict),
        _all("their energies are 12 and 8, matching both routes", wrong_energy),
        _all("both winning pairs are non-isospectral", iso_fail),
        _all("constructible census rows match their tabulated spectra", construct_fail),
    ]


def _brackets_a_root(coeffs: list[int], x: Eig) -> bool:
    """Whether the integer polynomial with ascending ``coeffs`` changes sign
    on [value - radius, value + radius], in exact arithmetic."""
    lo = D.polynomial_value(coeffs, Fraction(x.value) - Fraction(x.radius))
    hi = D.polynomial_value(coeffs, Fraction(x.value) + Fraction(x.radius))
    return lo * hi <= 0


def verify_table2() -> list[CheckResult]:
    # the cube is the crown graph with t = 4, so the bipartite theorem makes
    # it the one row of this census that must pass
    crown4 = D.exact_spectrum_of_family("crown", t=4)
    twelve = ExactValue.from_rational(12)
    passing, cube_fail, certify_fail = [], [], []
    for row in D.TABLE_DISTANCE_TRANSITIVE_CUBIC:
        report = check_equienergetic(row.spectrum, k=3)
        if report.equal:
            passing.append(row.name)
        if row.name == "Q_3" and not (
                row.spectrum == crown4 and report.routes_agree
                and report.energy == twelve and report.energy_complement == twelve):
            cube_fail.append("Q_3 is not crown(4) with E = 12 on both sides")
        for x, _ in row.spectrum.values:
            if type(x) is not Eig:
                continue
            if x.radius > 1e-10:
                certify_fail.append(f"{row.name}: radius {x.radius}")
            if row.name != "Biggs-Smith" or not _brackets_a_root(D.BIGGS_SMITH_CUBIC, x):
                certify_fail.append(f"{row.name}: {x} brackets no root of x^3 + 3x^2 - 3")
    if passing != ["Q_3"]:
        cube_fail.append(f"passing rows: {passing}")
    results = [
        _all("exactly the cube (the crown graph with t = 4) is complementary "
             "equienergetic among the 13 distance-transitive cubic graphs, "
             "with E = 12 on both sides", cube_fail,
             f"{len(D.TABLE_DISTANCE_TRANSITIVE_CUBIC) - 1} other rows fail"),
        _all("every approximate eigenvalue is certified to radius 1e-10",
             certify_fail),
    ]
    # the detector for irrational eigenvalues inside (-1, 0): sound on a
    # synthetic witness; the corrected Coxeter and Biggs-Smith spectra have
    # no such eigenvalue, so both rows fail by plain discrepancy mismatch
    witness = Spectrum(
        [(Surd(2), 1), (Surd(1, -1, 2), 2), (Surd(0), 1), (Surd(-2), 1)]
    )
    coxeter = next(r for r in D.TABLE_DISTANCE_TRANSITIVE_CUBIC if r.name == "Coxeter")
    biggs = next(r for r in D.TABLE_DISTANCE_TRANSITIVE_CUBIC if r.name == "Biggs-Smith")
    detector_ok = (
        has_exact_irrational_in_unit_neg(witness)
        and not check_equienergetic(witness, k=2).equal
        and not has_exact_irrational_in_unit_neg(coxeter.spectrum)
        and not has_exact_irrational_in_unit_neg(biggs.spectrum)
    )
    results.append(CheckResult(
        "irrational-in-(-1,0) short-circuit fires on a witness spectrum; "
        "Coxeter and Biggs-Smith instead fail by exact discrepancy mismatch",
        detector_ok))
    return results


# -- strongly regular enumeration -----------------------------------------------------


def _ds_conference_failures() -> list[str]:
    """Conference sporadics of the spectrally-determined catalog that are not
    self-complementary conference tuples passing the equienergy condition."""
    fails = []
    for name, d in D.DS_CONFERENCE:
        p = S.family_params(S.Conference(d=d))
        if not (S.is_conference(p) and S.equien_condition(p)
                and S.complement_params(p) == p):
            fails.append(name)
    return fails


def _ds_nonconference_failures() -> list[str]:
    """Non-conference sporadics of the spectrally-determined catalog that do
    not fail the condition with m_r - m_s > 0 and 2k + 1 - n < 0."""
    fails = []
    for row in D.DS_NONCONFERENCE:
        p = D.ds_nonconference_params(row)
        data = S.eigen_data(p)
        if S.equien_condition(p, data) or data.m_r - data.m_s <= 0 or 2 * p.k + 1 - p.n >= 0:
            fails.append(row[-1])
    return fails


def _primitive(make, *args) -> S.SrgParams | None:
    """``make(*args)`` when it is a feasible primitive tuple, else None."""
    try:
        p = make(*args)
        if p is None or not S.is_primitive(p):
            return None
        S.eigen_data(p)  # raises for an infeasible tuple
    except S.InfeasibleParams:
        return None
    return p


def _misses(cases) -> list:
    """The labels, in case order, of the (label, tuple, expected) cases whose
    tuple's equienergy condition is not the expected verdict; a None tuple
    is skipped."""
    return [label for label, p, expected in cases
            if p is not None and S.equien_condition(p) != expected]


def _lattice_failures() -> list[int]:
    """n in [3,50] whose lattice tuple L2(n) fails the equienergy condition."""
    return _misses((n, S.latin_square_params(2, n), True) for n in range(3, 51))


def _multipartite_failures(m_max: int) -> list[str]:
    """K_{mxm}, m in [2, m_max], whose closed-form spectrum fails the
    criterion against the complement, a disjoint union of m copies of K_m."""
    fails = []
    for m in range(2, m_max + 1):
        spec = D.exact_spectrum_of_family("complete_multipartite", a=m, m=m)
        if not check_equienergetic(spec, k=m * (m - 1)).equal:
            fails.append(f"K_{m}x{m}")
    return fails


def _triangular_failures() -> list[int]:
    """n in [5,50] whose triangular tuple T(n) passes the equienergy condition."""
    return _misses((n, S.steiner_params(2, n - 2), False) for n in range(5, 51))


def _oracle_direct_energy(n_max: int) -> set[S.SrgParams]:
    """Independent route: compare E and the complement's E tuple by tuple."""
    from math import gcd

    hits: set[S.SrgParams] = set()
    for n in range(5, n_max + 1):
        for k in range(1, n - 1):
            # k divides d(n - k - 1), i.e. d(n - 1), iff k / gcd(k, n - 1) divides d
            step = k // gcd(k, n - 1)
            for d in range(step, k, step):
                e = k - 1 - d * (n - k - 1) // k
                if e < 0:
                    continue
                try:
                    p = S.SrgParams(n, k, e, d)
                    data = S.eigen_data(p)
                except S.InfeasibleParams:
                    continue
                if not S.is_primitive(p):
                    continue
                if S.energy_closed(p, data) == S.energy_closed(S.complement_params(p)):
                    hits.add(p)
    return hits


def verify_srg_enumeration(n_max: int = 2500, oracle_n_max: int = 400) -> list[CheckResult]:
    # enumerate_equien's rows before its guards, so a faulty generator fails
    # a row with its tuple as the witness instead of raising
    rows = S._theorem_rows(n_max)
    bad_class = [str(p) for p, _, cls, _ in rows if isinstance(cls, S.NotEquien)]
    bad_oa = [str(p) for p, _, cls, oa in rows
              if not isinstance(cls, S.Conference) and oa is None]
    enumerated = [p for p, _, _, _ in rows]
    fast = {p for p in enumerated if p.n <= oracle_n_max}
    slow = _oracle_direct_energy(oracle_n_max)
    mismatch = sorted(str(p) for p in fast.symmetric_difference(slow))
    scan = [p for n in range(2, n_max + 1) for p in S._equien_scan(n)]
    scan_fail = sorted(map(str, set(scan) ^ set(enumerated))) or (
        [] if scan == enumerated else ["same tuple set, listed differently"])
    return [
        _all(f"every enumerated tuple (n <= {n_max}) is conference or one of the "
             "two square-count cases", bad_class, f"{len(rows)} tuples"),
        _all("every non-conference tuple carries orthogonal-array parameters", bad_oa),
        _all(f"direct-energy oracle agrees on all tuples with n <= {oracle_n_max}",
             mismatch, f"{len(slow)} tuples both ways"),
        _all(f"the primitive scan hits equal enumerate_equien for n <= {n_max}",
             scan_fail, f"{len(scan)} tuples"),
    ]


def verify_closed_energies() -> list[CheckResult]:
    case_fail, div_fail, conf_fail = [], [], []
    for h in range(-5, 6):
        for l in range(1, 21):
            for maker, formula in (
                (S.CaseB, lambda h, l: 2 * (l - h) * (2 * l - 1) * (l + h + 1)),
                (S.CaseC, lambda h, l: 4 * l * (l - h + 1) * (l + h + 1)),
            ):
                try:
                    cls = maker(h=h, l=l)
                    p = S.family_params(cls)
                except S.InfeasibleParams:
                    continue
                val = S.energy_closed(p)
                if type(val) is not int or val != formula(h, l):
                    case_fail.append(f"{maker.__name__}({h},{l})")
                elif val % 4 != 0:
                    div_fail.append(f"{maker.__name__}({h},{l})")
    for d in range(1, 101):
        got = S.energy_closed(S.SrgParams(4 * d + 1, 2 * d, d - 1, d))
        if got != ExactValue([(1, 2 * d), (4 * d + 1, 2 * d)]):
            conf_fail.append(f"d={d}")
    return [
        _all("closed energies match the two case formulas (h in [-5,5], l in [1,20])",
             case_fail),
        _all("every non-conference closed energy is divisible by 4", div_fail),
        _all("conference energy equals 2d(1 + sqrt(4d+1)) for d in [1,100]", conf_fail),
    ]


def verify_family_sweeps() -> list[CheckResult]:
    results = []

    results.append(_all("lattice tuples pass for n in [3,50]",
                        [f"n={n}" for n in _lattice_failures()]))
    results.append(_all("triangular tuples fail for n in [5,50]",
                        [f"n={n}" for n in _triangular_failures()]))

    steiner_fail = _misses((f"(m={m},n={n})", _primitive(S.steiner_params, m, n), False)
                           for m in range(2, 9) for n in range(1, 31))
    results.append(_all("Steiner block-graph tuples fail (m in [2,8], feasible n <= 30)",
                        steiner_fail))

    ls_fail = _misses((f"(m={m},n={n})", _primitive(S.latin_square_params, m, n), True)
                      for m in range(2, 11) for n in range(m + 2, 41))
    results.append(_all("Latin-square tuples pass whenever primitive "
                        "(m in [2,10], n in [m+2,40])", ls_fail))

    moore_fail = _misses((name, p, name == "pentagon") for p, name in D.MOORE_TUPLES)
    results.append(_all("Moore tuples fail (pentagon alone is self-complementary)",
                        moore_fail))

    tf_fail = _misses((name, p, False) for p, name in D.TRIANGLE_FREE_SPORADIC)
    results.append(_all("triangle-free sporadic tuples fail", tf_fail))

    results.append(_all("all 14 spectrally-determined sporadic tuples fail with "
                        "m_r - m_s > 0 and 2k + 1 - n < 0", _ds_nonconference_failures()))
    return results


def verify_gp() -> list[CheckResult]:
    r64 = S.gp_spectrum(3, 64)
    r16 = S.gp_spectrum(3, 16)
    expected = Spectrum([(21, 1), (5, 21), (-3, 42)])
    numeric = G.numeric_spectrum(G.gp_graph(3, 64))
    return [
        CheckResult("cubic-residue graph on 64 field elements is equienergetic "
                    "with its complement", r64.equien),
        CheckResult("cubic-residue graph on 16 field elements is not", not r16.equien),
        CheckResult("closed form {21, 5^21, (-3)^42} matches the constructed graph",
                    r64.spectrum == expected and spectra_match(numeric, expected)),
    ]


def verify_cameron() -> list[CheckResult]:
    results = []

    # equating NL(n, m) with OA(n, m') forces m' = m + 1 (from d) and then
    # n = 2m + 1 (from k): the diagonal is OA(2m+1, m+1), a conference tuple
    nl_fail, nl_hits = [], set()
    for n in range(1, 31):
        for m in range(1, 31):
            try:
                p = S.negative_latin_square_params(n, m)
            except S.InfeasibleParams:
                continue
            oa = S.oa_params(p)
            if oa is None:
                continue
            nl_hits.add((n, m))
            if oa != (2 * m + 1, m + 1) or not S.is_conference(p):
                nl_fail.append(f"NL({n},{m})={p} is OA{oa}, "
                               f"conference={S.is_conference(p)}")
    diagonal = {(2 * m + 1, m) for m in range(1, 31) if 2 * m + 1 <= 30}
    nl_fail += [f"NL({n},{m}) missing" for n, m in sorted(diagonal - nl_hits)]
    nl_fail += [f"NL({n},{m}) off the diagonal" for n, m in sorted(nl_hits - diagonal)]
    results.append(_all(
        "negative-Latin-square tuples carry orthogonal-array parameters exactly "
        "when n = 2m + 1, as the conference tuple OA(2m+1, m+1) (n, m in [1,30])",
        nl_fail, f"{len(nl_hits)} diagonal tuples",
    ))

    smith_hits = _misses((str(p), p, False) for r in range(1, 21) for s in range(-20, -1)
                         for p in [_primitive(S.smith_params, r, s)])
    results.append(_all("integral Smith tuples never pass the equienergy condition "
                        "(r in [1,20], s in [-20,-2])", smith_hits))

    c5_fail = _multipartite_failures(12)
    if not S.equien_condition(S.SrgParams(5, 2, 0, 1)):
        c5_fail.append("pentagon")
    p9 = S.SrgParams(9, 4, 1, 2)
    if not (S.equien_condition(p9) and S.oa_params(p9) == (3, 2)):
        c5_fail.append("3x3 rook tuple")
    results.append(_all("K_{mxm}, the pentagon and the 3x3 rook tuple all pass",
                        c5_fail))

    ds_fail = _multipartite_failures(29)
    ds_fail += _ds_conference_failures()
    # n = 4: two graphs share the L2(4) parameters; not spectrally determined
    ds_fail += [f"L2({n})" for n in _lattice_failures() if n != 4]
    # n = 8: T(8) has three exceptional mates; not spectrally determined
    ds_fail += [f"T({n})" for n in _triangular_failures() if n != 8]
    ds_fail += _ds_nonconference_failures()
    results.append(_all(
        "over the spectrally-determined catalog the accepted tuples are exactly "
        "K_{mxm}, the three conference sporadics and the rook tuples "
        "(including the 3x3 one)", ds_fail))
    return results


# -- unitary Cayley ------------------------------------------------------------------


def verify_rings_even(max_order: int = 4096) -> list[CheckResult]:
    wrong = []
    counts = 0
    for s in (2, 4):
        for profile in R.profiles_with_order_up_to(s, max_order):
            counts += 1
            report = R.equien_check(profile)  # raises if the two routes disagree
            should = profile.s == 2 and profile.is_field_product()
            if report.equal != should:
                wrong.append(str(profile))
    return [
        _all(f"profiles with 2 or 4 local factors and order <= {max_order} pass "
             "exactly when they are products of two fields", wrong,
             f"{counts} profiles checked, both decision routes agreeing"),
    ]


def verify_rings_odd() -> list[CheckResult]:
    results = []
    # for three fields the condition is 1/(q1-1) + 1/(q2-1) + 1/(q3-1) = 1;
    # with x1 <= x2 <= x3 the smallest term forces x1 <= 3 and then x2 <= 4,
    # leaving exactly these unit-fraction solutions x_i = q_i - 1
    unit_fractions = [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
    expected3 = sorted(tuple(x + 1 for x in xs) for xs in unit_fractions
                       if all(x + 1 <= 16 and is_prime_power(x + 1) for x in xs))
    got3 = R.search_field_products(3, 16)
    results.append(CheckResult(
        "triple-field search up to 16 returns exactly the prime-power "
        f"unit-fraction solutions {expected3}",
        got3 == expected3,
        f"got {got3}",
    ))

    got5 = R.search_field_products(5, 512)
    equal5 = [t for t in got5 if len(set(t)) == 1]
    results.append(_all("no five equal fields pass up to 512",
                        [str(t) for t in equal5]))

    local_fail = []
    for q, m in R._local_descriptors(1024):
        report = R.equien_check(R.RingProfile.of((q, m)))
        if report.equal != (m == q):
            local_fail.append(f"{q}:{m}")
    results.append(_all("a local profile (q, m) passes exactly when m = q",
                        local_fail))
    return results


# -- numeric oracle coherence -----------------------------------------------------------


def _coherence_cases() -> list[tuple[str, Callable[[], G.Graph], Spectrum]]:
    cases: list[tuple[str, Callable[[], G.Graph], Spectrum]] = []
    for t in range(2, 51):
        spec = D.exact_spectrum_of_family("crown", t=t)
        cases.append((f"crown t={t}", lambda t=t: G.crown(t), spec))
        comp = complement_spectrum(spec, k=t - 1)
        cases.append((f"crown complement t={t}",
                      lambda t=t: G.complement(G.crown(t)), comp))
    for row in D.TABLE_INTEGRAL_CUBIC + D.TABLE_DISTANCE_TRANSITIVE_CUBIC:
        if row.build is not None:
            cases.append((row.name, row.build, row.spectrum))
    cases.append(("cubic-residue graph q=16", lambda: G.gp_graph(3, 16),
                  S.gp_spectrum(3, 16).spectrum))
    cases.append(("cubic-residue graph q=64", lambda: G.gp_graph(3, 64),
                  S.gp_spectrum(3, 64).spectrum))
    cases.append(("shrikhande", G.shrikhande,
                  D.exact_spectrum_of_family("shrikhande")))
    for qs in ((3, 5, 5), (4, 4, 4), (3, 4, 7)):
        profile = R.RingProfile.of(*[(q, 1) for q in qs])
        cases.append((f"unitary Cayley {qs}",
                      lambda qs=qs: G.unitary_cayley_concrete([f"F{q}" for q in qs]),
                      R.unitary_spectrum(profile)))
    return cases


def verify_oracle_coherence() -> list[CheckResult]:
    failures = []
    total = 0
    for name, build, exact in _coherence_cases():
        total += 1
        if not spectra_match(G.numeric_spectrum(build()), exact):
            failures.append(name)
    return [
        _all("numeric spectra match the exact spectra of every constructed graph "
             "(within each eigenvalue's certified radius, exact multiplicity "
             "grouping)", failures, f"{total} graphs"),
    ]


def verify_table3() -> list[CheckResult]:
    return [_all("the three conference sporadics are self-complementary and pass",
                 _ds_conference_failures())]


def verify_table4() -> list[CheckResult]:
    return [_all("all 14 non-conference sporadic rows fail with m_r > m_s "
                 "and 2k + 1 < n", _ds_nonconference_failures())]


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "table1": verify_table1,
    "table2": verify_table2,
    "table3": verify_table3,
    "table4": verify_table4,
    "crowns": verify_crowns,
    "srg-families": lambda: (verify_srg_enumeration() + verify_closed_energies()
                             + verify_family_sweeps() + verify_gp()),
    "cameron": verify_cameron,
    "rings": lambda: verify_rings_even() + verify_rings_odd(),
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name]()
