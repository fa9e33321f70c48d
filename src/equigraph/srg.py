"""Strongly regular graph parameter algebra.

Exact eigen-data for srg(n, k, e, d) tuples, the complementary
equienergy condition, its three-way classification (conference versus
the square / odd-square vertex-count cases), the orthogonal-array and
related parameterizations, and the enumeration of all parameter tuples
equienergetic with their complements from the theorem's closed forms,
with a vectorized integer scan kept as its independent check.

Every enumerated tuple is re-verified exactly, in integer arithmetic
before any surd is built; nothing is decided in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional, Union

from . import exact
from .exact import ExactValue, Surd
from .spectra import Spectrum

# numpy is imported inside the integer scan, which only the srg-families
# verify suite runs, so that the exact commands never load it

__all__ = [
    "InfeasibleParams",
    "SrgParams",
    "SrgEigenData",
    "EquienClass",
    "NotEquien",
    "Conference",
    "CaseB",
    "CaseC",
    "eigen_data",
    "spectrum_of",
    "complement_params",
    "is_primitive",
    "is_conference",
    "oa_params",
    "equien_condition",
    "classify",
    "family_params",
    "energy_closed",
    "smith_params",
    "negative_latin_square_params",
    "latin_square_params",
    "steiner_params",
    "theorem_tuples",
    "enumerate_equien",
    "gp_spectrum",
]

ENUMERATION_CAP = 10_000


class InfeasibleParams(ValueError):
    """A tuple that names no graph.  The arguments are a ``str.format``
    template and its fields, joined only when the message is read: the
    scans that try many tuples discard most of these."""

    def __str__(self):
        template, *fields = self.args
        return template.format(*fields) if fields else template


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    e: int
    d: int

    def __post_init__(self):
        if not 0 < self.k < self.n - 1:
            raise InfeasibleParams("need 0 < k < n - 1, got {}", self)
        if self.e < 0 or self.d < 0:
            raise InfeasibleParams("negative common-neighbor count in {}", self)
        if self.e > self.k - 1 or self.d > self.k:
            raise InfeasibleParams("common-neighbor counts exceed degree in {}", self)

    def identity_holds(self) -> bool:
        """The counting identity k(k - e - 1) = d(n - k - 1)."""
        return self.k * (self.k - self.e - 1) == self.d * (self.n - self.k - 1)

    def __str__(self):
        return f"srg({self.n},{self.k},{self.e},{self.d})"


@dataclass(frozen=True)
class SrgEigenData:
    alpha: int
    r: Surd
    s: Surd
    m_r: int
    m_s: int
    conference: bool


def eigen_data(p: SrgParams) -> SrgEigenData:
    """Exact nontrivial eigenvalues and multiplicities of an srg tuple.

    With alpha = (e - d)^2 + 4(k - d) and t = 2k + (n - 1)(e - d), the
    eigenvalues are r, s = ((e - d) +- sqrt(alpha)) / 2 with multiplicities
    m_r, m_s = ((n - 1) sqrt(alpha) -+ t) / (2 sqrt(alpha)).  Feasibility
    is decided in integers before any surd is built: for a square
    alpha = a^2 both (n - 1)a -+ t must be nonnegative multiples of 2a
    (then a = e - d mod 2, so r and s are integers); otherwise
    sqrt(alpha) is irrational and the multiplicities must balance
    (t = 0, the conference case).

    Two failures cannot happen, so neither is checked:

    * alpha > 0.  ``SrgParams`` forces d <= k and e <= k - 1, so
      4(k - d) >= 0, and alpha = 0 would need e = d = k.
    * The conference case has an odd vertex count.  t = 0 means
      (n - 1)(d - e) = 2k, and 0 < 2k < 2(n - 1) forces d - e = 1, so
      n - 1 = 2k is even.

    Raises InfeasibleParams when the counting identity fails, or when the
    multiplicities come out negative or non-integral outside the
    conference case (irrational eigenvalues with equal multiplicities).
    """
    if not p.identity_holds():
        raise InfeasibleParams("counting identity fails for {}", p)
    n1, ed = p.n - 1, p.e - p.d
    alpha = ed * ed + 4 * (p.k - p.d)
    a = isqrt(alpha)
    t = 2 * p.k + n1 * ed
    if a * a == alpha:
        m_r, rem = divmod(n1 * a - t, 2 * a)
        m_s = n1 - m_r
        if rem or m_r < 0 or m_s < 0:
            raise InfeasibleParams("non-integral or negative multiplicities for {}", p)
        return SrgEigenData(alpha=alpha, r=Surd((ed + a) // 2), s=Surd((ed - a) // 2),
                            m_r=m_r, m_s=m_s, conference=False)
    if t != 0:
        raise InfeasibleParams(
            "irrational eigenvalues with unbalanced multiplicities for {}", p
        )
    # alpha = f^2 D is factored once, and r and s share the radicand D
    f, radicand = exact.squarefree_decompose(alpha)
    half_ed = Fraction(ed, 2)
    r = Surd._canonical(half_ed, Fraction(f, 2), radicand)
    s = Surd._canonical(half_ed, Fraction(-f, 2), radicand)
    return SrgEigenData(alpha=alpha, r=r, s=s, m_r=n1 // 2, m_s=n1 // 2, conference=True)


def spectrum_of(p: SrgParams) -> Spectrum:
    data = eigen_data(p)
    return Spectrum([
        (p.k, 1),
        (data.r, data.m_r),
        (data.s, data.m_s),
    ])


def complement_params(p: SrgParams) -> SrgParams:
    nk = p.n - p.k - 1
    ne = p.n - 2 - 2 * p.k + p.d
    nd = p.n - 2 * p.k + p.e
    if ne < 0 or nd < 0:
        raise InfeasibleParams("complement of {} has negative parameters", p)
    return SrgParams(p.n, nk, ne, nd)


def is_conference(p: SrgParams) -> bool:
    return p.n == 4 * p.d + 1 and p.k == 2 * p.d and p.e == p.d - 1


def is_primitive(p: SrgParams) -> bool:
    """Both the graph and its complement connected: d >= 1 and d < k on each side."""
    if p.d < 1 or p.d >= p.k:
        return False
    try:
        q = complement_params(p)
    except InfeasibleParams:
        return False
    return q.d >= 1 and q.d < q.k


def oa_params(p: SrgParams) -> Optional[tuple[int, int]]:
    """Invert srg(n^2, m(n-1), m^2 - 3m + n, m(m-1)) exactly, or None."""
    root = isqrt(p.n)
    if root * root != p.n or root < 2:
        return None
    if p.k % (root - 1) != 0:
        return None
    m = p.k // (root - 1)
    if p.e != m * m - 3 * m + root or p.d != m * (m - 1):
        return None
    return (root, m)


def equien_condition(p: SrgParams, data: Optional[SrgEigenData] = None) -> bool:
    """Exact test of n == 2k(sqrt(alpha) + 1)/(sqrt(alpha) - (e - d)) + 1, in integers.

    The divisor sqrt(alpha) - (e - d) is positive for every feasible tuple:
    if k > d then sqrt(alpha) > |e - d|, and if k = d then e - d <= -1.  So
    the condition cross-multiplies to sqrt(alpha) x == t with
    x = n - 1 - 2k and t = 2k + (n - 1)(e - d).  Two routes decide it
    independently, and their disagreement is an internal error:

    * squaring: x and t have the same sign and x^2 alpha == t^2;
    * the integer root, i.e. the discrepancy route m_r - m_s == 2k + 1 - n:
      a (2k + 1 - n) == -t when alpha = a^2, while for an irrational
      sqrt(alpha) both sides must be 0.

    ``data`` is ``eigen_data(p)``, derived here when not given.
    """
    if data is None:
        data = eigen_data(p)
    alpha = data.alpha
    x = p.n - 1 - 2 * p.k
    t = 2 * p.k + (p.n - 1) * (p.e - p.d)
    via_square = (x > 0) - (x < 0) == (t > 0) - (t < 0) and x * x * alpha == t * t
    a = isqrt(alpha)
    via_root = a * (2 * p.k + 1 - p.n) == -t if a * a == alpha else x == t == 0
    if via_square != via_root:
        raise AssertionError(f"equienergy routes disagree on {p}")
    return via_square


# -- classification --------------------------------------------------------------


@dataclass(frozen=True)
class NotEquien:
    reason: str = ""


@dataclass(frozen=True)
class Conference:
    d: int


@dataclass(frozen=True)
class CaseB:
    """Even e - d = 2h; vertex count 4*l^2 and sqrt(alpha) = 2*l."""

    h: int
    l: int

    def __post_init__(self):
        if self.l in {self.h, -self.h, self.h + 1, -(self.h + 1)}:
            raise InfeasibleParams("excluded l for CaseB(h={}): {}", self.h, self.l)


@dataclass(frozen=True)
class CaseC:
    """Odd e - d = 2h - 1 with h != 0; vertex count (2*l+1)^2 and sqrt(alpha) = 2*l + 1."""

    h: int
    l: int

    def __post_init__(self):
        if self.h == 0:
            raise InfeasibleParams("CaseC requires h != 0")
        if self.l in {self.h, -self.h, -(self.h + 1), self.h - 1}:
            raise InfeasibleParams("excluded l for CaseC(h={}): {}", self.h, self.l)


EquienClass = Union[NotEquien, Conference, CaseB, CaseC]


def classify(p: SrgParams, data: Optional[SrgEigenData] = None) -> EquienClass:
    """Trichotomy of equienergetic primitive parameter tuples.

    Conference whenever e - d == -1 (the tuple is then forced to
    (4d+1, 2d, d-1, d), even if alpha happens to be a perfect square);
    otherwise recover (h, l) from e - d and sqrt(alpha) and re-verify
    the n, k, d closed forms before accepting.  ``data`` is
    ``eigen_data(p)``, derived here when not given.
    """
    if data is None:
        data = eigen_data(p)
    if not equien_condition(p, data):
        return NotEquien("condition fails")
    ed = p.e - p.d
    if ed == -1:
        if not is_conference(p):
            return NotEquien("e - d = -1 but not conference shaped")
        return Conference(d=p.d)
    a = isqrt(data.alpha)
    if a * a != data.alpha:
        return NotEquien("irrational discriminant outside the conference case")
    try:
        if ed % 2 == 0:
            if a % 2 != 0:
                return NotEquien("even e - d needs an even discriminant root")
            l, h = a // 2, ed // 2
            cls: EquienClass = CaseB(h=h, l=l)
        else:
            if a % 2 != 1:
                return NotEquien("odd e - d needs an odd discriminant root")
            l, h = (a - 1) // 2, (ed + 1) // 2
            cls = CaseC(h=h, l=l)
        if family_params(cls) != p:
            return NotEquien("recovered (h, l) does not reproduce the tuple")
    except InfeasibleParams as exc:
        return NotEquien(str(exc))
    return cls


def family_params(cls: EquienClass) -> SrgParams:
    """The parameter tuple of a classification outcome (inverse of classify)."""
    if isinstance(cls, Conference):
        if cls.d < 1:
            raise InfeasibleParams("conference tuples need d >= 1")
        return SrgParams(4 * cls.d + 1, 2 * cls.d, cls.d - 1, cls.d)
    if isinstance(cls, CaseB):
        h, l = cls.h, cls.l
        d = (l - h) * (l - h - 1)
        k = (l - h) * (2 * l - 1)
        return SrgParams(4 * l * l, k, d + 2 * h, d)
    if isinstance(cls, CaseC):
        h, l = cls.h, cls.l
        d = (l - h) * (l - h + 1)
        k = 2 * l * (l - h + 1)
        return SrgParams((2 * l + 1) ** 2, k, d + 2 * h - 1, d)
    raise InfeasibleParams("NotEquien has no parameter tuple")


def energy_closed(p: SrgParams, data: Optional[SrgEigenData] = None) -> int | ExactValue:
    """E = k + m_r * r + m_s * |s|, exactly; ``data`` is ``eigen_data(p)``,
    derived here when not given.

    s <= 0 <= r, as sqrt(alpha) >= |e - d| (k >= d).  In the conference
    case m_r = m_s and r - s = sqrt(alpha) = 2b sqrt(D) for r = a + b sqrt(D),
    whose radicand D ``eigen_data`` has already reduced, so
    E = k + 2 m_r b sqrt(D); otherwise r and s are integers and E is an int.
    """
    if data is None:
        data = eigen_data(p)
    if data.conference:
        r = data.r
        return ExactValue._from_squarefree({1: p.k, r.d: 2 * data.m_r * r.b})
    return p.k + data.m_r * int(data.r.a) - data.m_s * int(data.s.a)


# -- families from the wider catalog ---------------------------------------------------


def smith_params(r: int, s: int) -> Optional[SrgParams]:
    """Parameter system with prescribed integer eigenvalues r > 0 > s <= -2.

    Returns the tuple only when all four entries come out as positive
    integers (and form a valid parameter set); otherwise None.
    """
    if r <= 0 or s > -2:
        raise ValueError("need r > 0 and s <= -2")
    rs = r - s
    denom_v = rs * rs - r * r * (r + 1) ** 2
    denom_k = rs + r * (r + 1)
    if denom_v == 0 or denom_k == 0:
        return None
    v = Fraction(2 * rs * rs * ((2 * r + 1) * rs - 3 * r * (r + 1)), denom_v)
    k = Fraction(-s * ((2 * r + 1) * rs - r * (r + 1)), denom_k)
    e = Fraction(-r * (s + 1) * (rs - r * (r + 3)), denom_k)
    d = Fraction(-s * (r + 1) * (rs - r * (r + 1)), denom_k)
    values = (v, k, e, d)
    if any(x.denominator != 1 or x <= 0 for x in values):
        return None
    try:
        p = SrgParams(int(v), int(k), int(e), int(d))
    except InfeasibleParams:
        return None
    return p


def negative_latin_square_params(n: int, m: int) -> SrgParams:
    """srg(n^2, m(n+1), m^2 + 3m - n, m(m+1)); raises when not admissible."""
    e = m * m + 3 * m - n
    if e < 0:
        raise InfeasibleParams("negative e = {} for NL({},{})", e, n, m)
    p = SrgParams(n * n, m * (n + 1), e, m * (m + 1))
    if not p.identity_holds():
        raise InfeasibleParams("counting identity fails for NL({},{})", n, m)
    return p


def latin_square_params(m: int, n: int) -> SrgParams:
    """srg(n^2, m(n-1), (m-1)(m-2) + n - 2, m(m-1))."""
    return SrgParams(n * n, m * (n - 1), (m - 1) * (m - 2) + n - 2, m * (m - 1))


def steiner_params(m: int, n: int) -> SrgParams:
    """Block-graph tuple of a Steiner system S(2, m, mn + m - n)."""
    t = m * n + m - n
    num = t * (t - 1)
    den = m * (m - 1)
    if num % den != 0:
        raise InfeasibleParams("non-integral vertex count for Steiner(m={}, n={})", m, n)
    return SrgParams(num // den, m * n, (m - 1) ** 2 + n - 1, m * m)


# -- enumeration -----------------------------------------------------------------------


def _primitive_feasible_scan(n: int):
    """Vectorized scan of one vertex count: all primitive feasible (k, e, d).

    For each k the identity k(k - e - 1) = d(n - k - 1) makes e integral
    exactly when d is a multiple of k / gcd(k, n - 1), so only those d
    are generated.  Returns integer arrays (k, d, e) after the
    primitivity masks.
    """
    import numpy as np
    if n < 5:
        return None
    ks = np.arange(1, n - 1, dtype=np.int64)
    counts = np.gcd(ks, n - 1)  # number of admissible d <= k
    step = ks // counts
    k_flat = np.repeat(ks, counts)
    step_flat = np.repeat(step, counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    t_flat = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(offsets, counts) + 1
    d_flat = step_flat * t_flat

    x = d_flat * (n - 1 - k_flat)
    e_flat = k_flat - 1 - x // k_flat
    mask = (
        (d_flat >= 1)
        & (d_flat < k_flat)
        & (e_flat >= 0)
        & (n - 2 - 2 * k_flat + d_flat >= 0)             # complement e
        & (n - 2 * k_flat + e_flat >= 1)                 # complement d
        & (n - k_flat - 1 > n - 2 * k_flat + e_flat)     # complement d < complement k
    )
    if not mask.any():
        return None
    return k_flat[mask], d_flat[mask], e_flat[mask]


def _equien_scan(n: int) -> list[SrgParams]:
    """Integer equienergy test of one n, independent of the theorem's closed forms."""
    import numpy as np
    scan = _primitive_feasible_scan(n)
    if scan is None:
        return []
    k, d, e = scan
    ed = e - d
    conference = (ed == -1) & (k == 2 * d) & (n == 4 * d + 1)

    alpha = ed * ed + 4 * (k - d)
    a = np.sqrt(alpha.astype(np.float64)).astype(np.int64)
    a = np.where(a * a > alpha, a - 1, a)
    a = np.where((a + 1) * (a + 1) <= alpha, a + 1, a)
    issq = a * a == alpha
    t = 2 * k + (n - 1) * ed
    with np.errstate(divide="ignore", invalid="ignore"):
        num_r = (n - 1) * a - t
        num_s = (n - 1) * a + t
    safe_a = np.where(a == 0, 1, a)
    integral = issq & (num_r % (2 * safe_a) == 0) & (num_r >= 0) & (num_s >= 0)
    equien_int = integral & (-t == (2 * k + 1 - n) * a)

    hits = conference | equien_int
    out = []
    for kk, dd, ee in zip(k[hits].tolist(), d[hits].tolist(), e[hits].tolist()):
        out.append(SrgParams(n, kk, ee, dd))
    return out


def _theorem_range(n_max: int, n_min: int = 2) -> Iterator[SrgParams]:
    """The theorem's primitive tuples with n_min <= n <= n_max in (n, k, d)
    order: the conference tuple when n = 4d + 1 >= 5 is not a square, and
    OA(r, m) for 2 <= m < r when n = r^2.  For odd r the conference tuple
    on r^2 vertices is OA(r, (r+1)/2), so it is listed once, in its place
    among the OA tuples; an even square is never 1 mod 4.  No tuple has
    fewer than 5 vertices."""
    lo = max(n_min, 5)
    if n_max < lo:
        return
    conference_ns = range(lo + (1 - lo) % 4, n_max + 1, 4)
    square_ns = (r * r for r in range(isqrt(lo - 1) + 1, isqrt(n_max) + 1))
    for n in sorted({*conference_ns, *square_ns}):
        r = isqrt(n)
        if r * r == n:
            yield from (latin_square_params(m, r) for m in range(2, r))
        else:
            yield family_params(Conference(d=n // 4))


def theorem_tuples(n: int) -> list[SrgParams]:
    """The theorem's primitive tuples on n vertices in (k, d) order:
    ``_theorem_range`` over the one vertex count n."""
    return list(_theorem_range(n, n))


SrgRow = tuple[SrgParams, SrgEigenData, EquienClass, Optional[tuple[int, int]]]


def _theorem_rows(n_max: int, n_min: int = 2) -> list[SrgRow]:
    """The theorem's tuples with n_min <= n <= n_max, each with its eigen
    data, its ``classify`` outcome and its ``oa_params``, each derived once."""
    rows = []
    for p in _theorem_range(n_max, n_min):
        data = eigen_data(p)
        rows.append((p, data, classify(p, data), oa_params(p)))
    return rows


def enumerate_equien(n_max: int, n_min: int = 2) -> list[SrgRow]:
    """All primitive feasible tuples with n_min <= n <= n_max equienergetic
    with their complements, as (params, eigen data, class, OA parameters)
    rows in (n, k, d) order; asserts that ``classify`` accepts each and
    every non-conference entry is OA."""
    if n_max > ENUMERATION_CAP:
        raise ValueError(f"n_max above the {ENUMERATION_CAP} cap")
    results = _theorem_rows(n_max, n_min)
    for p, _, cls, oa in results:
        if isinstance(cls, NotEquien):
            raise AssertionError(f"theorem produced unclassifiable tuple {p}: {cls.reason}")
        if not isinstance(cls, Conference) and oa is None:
            raise AssertionError(f"non-conference entry without OA parameters: {p}")
    return results


# -- generalized Paley spectra -----------------------------------------------------------


def _least_t(k: int, p: int, bound: int) -> Optional[int]:
    for j in range(1, bound + 1):
        if (pow(p, j, k) + 1) % k == 0:
            return j
    return None


@dataclass(frozen=True)
class GpReport:
    spectrum: Spectrum
    equien: bool
    s: int
    t: int


def gp_spectrum(k: int, q: int) -> GpReport:
    """Closed-form spectrum of a semiprimitive power-residue Cayley graph.

    Requires k > 2, q = p^m with m even, k dividing p^t + 1 for the least
    such t (which must divide m/2), and k != p^(m/2) + 1.  The graph is
    equienergetic and non-isospectral with its complement exactly when
    s = m / (2t) is odd.
    """
    from .fields import prime_power_decompose

    decomp = prime_power_decompose(q)
    if decomp is None:
        raise ValueError(f"{q} is not a prime power")
    p, m = decomp
    if k <= 2:
        raise ValueError("need k > 2 (quadratic residues are the classical case)")
    if m % 2 != 0:
        raise ValueError(f"semiprimitivity needs even extension degree, got {m}")
    t = _least_t(k, p, m)
    if t is None or (m // 2) % t != 0:
        raise ValueError(f"(k={k}, q={q}) is not semiprimitive")
    sqrt_q = p ** (m // 2)
    if k == sqrt_q + 1:
        raise ValueError(f"k = sqrt(q) + 1 = {k} is excluded")
    if (q - 1) % k != 0:
        raise ValueError(f"k = {k} must divide q - 1")

    s = (m // 2) // t
    sign = 1 if s % 2 == 1 else -1
    deg = (q - 1) // k
    lam1 = Fraction(sign * (k - 1) * sqrt_q - 1, k)
    lam2 = Fraction(-(sign * sqrt_q + 1), k)
    if lam1.denominator != 1 or lam2.denominator != 1:
        raise AssertionError(f"non-integral spectrum for (k={k}, q={q})")
    spectrum = Spectrum([
        (deg, 1),
        (lam1.numerator, deg),
        (lam2.numerator, (k - 1) * deg),
    ])
    return GpReport(spectrum=spectrum, equien=(s % 2 == 1), s=s, t=t)
