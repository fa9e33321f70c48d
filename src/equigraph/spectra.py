"""Spectrum model, discrepancy invariants and the equienergy criterion.

A regular graph and its loopless complement are equienergetic exactly
when ``n == 2k + 1 - Delta`` where ``Delta`` is the spectral
discrepancy: the sum of ``|1 + x| - |x|`` over the spectrum with one
copy of the degree removed.  Everything here is decided in exact
arithmetic whenever the eigenvalues are exact; certified floating
entries are admitted only when their intervals stay clear of the
branch-relevant region ``(-1, 0)`` and its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional, Union

from .exact import ExactValue, Surd, exact_sum, format_surd

__all__ = [
    "UncertifiableBranch",
    "Eig",
    "Spectrum",
    "Approximate",
    "DiscrepancyBreakdown",
    "EquienReport",
    "delta_branch",
    "discrepancy",
    "energy",
    "complement_spectrum",
    "check_equienergetic",
    "spectra_match",
]

APPROX_RADIUS_CAP = 1e-6


class UncertifiableBranch(Exception):
    """A floating eigenvalue interval cannot be assigned a branch of delta."""


@dataclass(frozen=True)
class Eig:
    """A real eigenvalue, known exactly or within +-radius."""

    exact: Optional[Surd]
    value: float
    radius: float

    @classmethod
    def from_exact(cls, x: Union[Surd, int, Fraction]) -> "Eig":
        if type(x) is int:
            return cls(Surd.from_int(x), float(x), 0.0)
        s = x if isinstance(x, Surd) else Surd(x)
        return cls(exact=s, value=float(s), radius=0.0)

    @classmethod
    def from_approx(cls, value: float, radius: float) -> "Eig":
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return cls(exact=None, value=float(value), radius=float(radius))

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def lo(self) -> float:
        return self.value - self.radius

    @property
    def hi(self) -> float:
        return self.value + self.radius

    def __str__(self) -> str:
        if self.exact is not None:
            return format_surd(self.exact)
        return f"{self.value!r}(+-{self.radius:g})"


def _float_key(entry: tuple[Eig, int]) -> tuple[float, bool, float]:
    """The canonical order on float values: larger value first, exact before
    approximate, then the smaller radius."""
    eig = entry[0]
    return -eig.value, eig.exact is None, eig.radius


_exact_key = cmp_to_key(lambda p, q: q[0].exact.compare(p[0].exact))


def _sort_entries(entries: list[tuple[Eig, int]]) -> None:
    """Sort descending: by float value, then exactly on near-ties.

    Two exact entries whose floats are in the wrong order lie at most
    ``tol`` apart, ``tol`` being twice the largest ``Surd.float_error``
    present, and so does every entry sorted between them.  Runs of
    adjacent exact entries at most ``tol`` apart are therefore re-sorted
    with the exact comparator.  Distinct integers up to 2**53 convert
    exactly (``tol`` is 0), so their spectra never reach it.  Approximate
    entries are ordered against every other entry by float value.
    """
    entries.sort(key=_float_key)
    tol = 2 * max((eig.exact.float_error() for eig, _ in entries if eig.exact is not None),
                  default=0.0)
    start = 0
    for i in range(1, len(entries) + 1):
        if i < len(entries):
            upper, lower = entries[i - 1][0], entries[i][0]
            if (upper.exact is not None and lower.exact is not None
                    and upper.value - lower.value <= tol):
                continue
        if i - start > 1:
            entries[start:i] = sorted(entries[start:i], key=_exact_key)
        start = i


class Spectrum:
    """Multiset of eigenvalues with multiplicities, sorted descending.

    ``entries`` holds ``(Eig, mult)`` pairs.  ``integral`` holds the same
    spectrum as ``(int, mult)`` pairs in entry order when every entry is
    an exact integer, and is None otherwise; the consumers below read it
    first, so an integral spectrum never reaches the surd arithmetic.
    ``principal`` is the index of the principal (degree) entry in the
    sorted entries; ``principal_value`` locates it by its exact value
    instead.  A spectrum is not changed after it is built.

    The constructor takes ``(Eig, mult)`` pairs, or ``(int, mult)`` pairs
    throughout, which merge and sort as ints alone.
    """

    __slots__ = ("entries", "n", "principal", "integral")

    def __init__(self, entries: Iterable[tuple[Union[Eig, int], int]], n: Optional[int] = None,
                 principal: Optional[int] = None, *,
                 principal_value: Union[Surd, int, Fraction, None] = None):
        pairs = list(entries)
        if all(type(x) is int for x, _ in pairs):
            counts: dict[int, int] = {}
            for x, mult in pairs:
                if mult <= 0:
                    raise ValueError("multiplicities must be positive")
                counts[x] = counts.get(x, 0) + mult
            integral = sorted(counts.items(), reverse=True)
            ordered = [(Eig.from_exact(x), mult) for x, mult in integral]
        else:
            # exact entries merge on their canonical value; approximate ones never merge
            merged: dict[object, list] = {}
            for eig, mult in pairs:
                if mult <= 0:
                    raise ValueError("multiplicities must be positive")
                key = eig.exact if eig.exact is not None else object()
                merged.setdefault(key, [eig, 0])[1] += mult
            ordered = [(eig, mult) for eig, mult in merged.values()]
            _sort_entries(ordered)
            integral = None
            if all(eig.exact is not None and eig.exact.is_integer for eig, _ in ordered):
                integral = [(eig.exact.a.numerator, mult) for eig, mult in ordered]
        total = sum(m for _, m in ordered)
        if n is None:
            n = total
        elif n != total:
            raise ValueError(f"multiplicities sum to {total}, expected n={n}")
        if principal_value is not None:
            if principal is not None:
                raise ValueError("give principal or principal_value, not both")
            values = integral if integral is not None else [(e.exact, m) for e, m in ordered]
            principal = next((i for i, (x, _) in enumerate(values) if x == principal_value),
                             None)
            if principal is None:
                raise ValueError(f"principal value {principal_value} is not an eigenvalue")
        elif principal is None:
            principal = 0
        if ordered and not 0 <= principal < len(ordered):
            raise ValueError("principal index out of range")
        self.entries = tuple(ordered)
        self.n = n
        self.principal = principal
        self.integral = None if integral is None else tuple(integral)

    @classmethod
    def from_values(cls, values: Iterable[tuple[Union[Surd, int, Fraction], int]]) -> "Spectrum":
        return cls([(Eig.from_exact(v), m) for v, m in values])

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for e, _ in self.entries)

    @property
    def principal_eig(self) -> Eig:
        return self.entries[self.principal][0]

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self):
        inner = ", ".join(f"[{eig}]^{m}" for eig, m in self.entries)
        return f"Spectrum({{{inner}}}, n={self.n})"

    # -- JSON wire format ---------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for eig, mult in self.entries:
            if eig.exact is not None:
                value = format_surd(eig.exact)
            else:
                value = {"approx": eig.value, "radius": eig.radius}
            entries.append({"value": value, "mult": mult})
        return {"n": self.n, "entries": entries, "principal": self.principal}


@dataclass(frozen=True)
class Approximate:
    """An inexact scalar result carrying its accumulated radius."""

    value: float
    radius: float

    def __float__(self):
        return self.value


# -- delta and the discrepancy ------------------------------------------------


def _assumed_value(e: Eig) -> Fraction:
    """assume-exact reading of an interval: the midpoint, snapped to the
    nearest integer when that integer lies within the interval's own radius
    (numeric spectra of integral graphs land there)."""
    nearest = round(e.value)
    if abs(e.value - nearest) <= e.radius:
        return Fraction(nearest)
    return Fraction(e.value)


def _point(e: Eig) -> Surd:
    """The exact value of ``e``, or the assume-exact reading of an interval."""
    return e.exact if e.exact is not None else Surd(_assumed_value(e))


_ONE = Surd(1)
_MINUS_ONE = Surd(-1)


def delta_branch(e: Eig, assume_exact: bool = False) -> str:
    """The discrepancy term an eigenvalue x feeds: 'sigma+' (x >= 1),
    'sigma-' (x <= -1), 'm0' (x == 0), 'T' (0 < x < 1) or 'S' (-1 < x < 0).

    An exact x is decided by its float when that is exact or farther than
    ``x.float_error()`` from -1, 0 and 1, and by exact comparisons
    otherwise.  An interval of radius at most ``APPROX_RADIUS_CAP`` is
    decided when it lies in (-inf, -1] or [0, inf); one in [0, inf) that
    reaches 1 counts as 'sigma+' whatever its midpoint's last digits, so the
    sigma/T split does not depend on the vertex labelling (both add +1).
    Any other interval raises ``UncertifiableBranch``, unless
    ``assume_exact`` reads it as the point ``_assumed_value`` and decides
    that exactly.
    """
    x = e.exact
    if x is None:
        if e.radius > APPROX_RADIUS_CAP and not assume_exact:
            raise UncertifiableBranch(
                f"interval radius {e.radius!r} exceeds the decision cap {APPROX_RADIUS_CAP}"
            )
        if e.hi <= -1:
            return "sigma-"
        if not assume_exact:
            if e.lo < 0:
                raise UncertifiableBranch(
                    f"interval [{e.lo!r}, {e.hi!r}] is not certifiably clear of (-1, 0)"
                )
            if e.hi >= 1:
                return "sigma+"
            return "m0" if e.value == 0 and e.radius == 0 else "T"
        x = Surd(_assumed_value(e))
        if e.hi >= 1 and x.sign() >= 0:
            return "sigma+"
    else:
        err = x.float_error()
        value = e.value
        if value - err >= 1:
            return "sigma+"
        if value + err <= -1:
            return "sigma-"
        if err == 0.0:  # an integer strictly between -1 and 1
            return "m0"
        if err < value < 1 - err:
            return "T"
        if -1 + err < value < -err:
            return "S"
    sign = x.sign()
    if sign == 0:
        return "m0"
    if sign > 0:
        return "sigma+" if x.compare(_ONE) >= 0 else "T"
    return "sigma-" if x.compare(_MINUS_ONE) <= 0 else "S"


@dataclass(frozen=True)
class DiscrepancyBreakdown:
    """Decomposition ``delta_total = sigma + T + m0 + S`` over Sp'.

    sigma -- sum of eigenvalue signs where |eig| >= 1;
    T     -- count of eigenvalues in (0, 1);
    m0    -- multiplicity of eigenvalue 0;
    S     -- sum of 2*eig + 1 over eigenvalues in (-1, 0).
    """

    sigma: int
    T: int
    m0: int
    S: ExactValue

    @property
    def delta_total(self) -> ExactValue:
        return self.S + (self.sigma + self.T + self.m0)


def _sp_prime(pairs, principal: int) -> list:
    """Spectrum pairs (``entries`` or ``integral``) with exactly one copy of
    the principal eigenvalue removed."""
    out = []
    for i, (x, mult) in enumerate(pairs):
        if i == principal:
            if mult > 1:
                out.append((x, mult - 1))
        else:
            out.append((x, mult))
    return out


_ZERO_VALUE = ExactValue()


def discrepancy(s: Spectrum, assume_exact: bool = False) -> DiscrepancyBreakdown:
    """Exact discrepancy of a regular spectrum, over Sp' = Spec minus one degree copy.

    Over an integral spectrum Delta is a count: sigma = #(x >= 1) -
    #(x <= -1) and m0 = #(x = 0) over Sp', while T and S vanish, since no
    integer lies in (0, 1) or (-1, 0).
    """
    if s.integral is not None:
        sigma = m0 = 0
        for x, mult in _sp_prime(s.integral, s.principal):
            if x >= 1:
                sigma += mult
            elif x <= -1:
                sigma -= mult
            else:
                m0 += mult
        return DiscrepancyBreakdown(sigma=sigma, T=0, m0=m0, S=_ZERO_VALUE)
    counts = {"sigma+": 0, "sigma-": 0, "m0": 0, "T": 0}
    s_terms = []
    for eig, mult in _sp_prime(s.entries, s.principal):
        branch = delta_branch(eig, assume_exact)
        if branch == "S":
            s_terms.append((_point(eig) * 2 + 1, mult))
        else:
            counts[branch] += mult
    return DiscrepancyBreakdown(sigma=counts["sigma+"] - counts["sigma-"], T=counts["T"],
                                m0=counts["m0"], S=exact_sum(s_terms))


def energy(s: Spectrum) -> Union[ExactValue, Approximate]:
    """Sum of |eigenvalue| * multiplicity; exact when every entry is exact."""
    if s.integral is not None:
        return ExactValue.from_rational(sum(abs(x) * mult for x, mult in s.integral))
    if s.is_exact:
        return exact_sum([(abs(e.exact), m) for e, m in s.entries])
    value = 0.0
    radius = 0.0
    for eig, mult in s.entries:
        if eig.exact is not None:
            value += abs(float(eig.exact)) * mult
        else:
            value += abs(eig.value) * mult
            radius += eig.radius * mult
    return Approximate(value=value, radius=radius)


def complement_spectrum(s: Spectrum, k: int, loops: bool = False) -> Spectrum:
    """Spectrum of the complement of a k-regular graph with spectrum ``s``.

    The loopless complement J - I - A maps eig -> -1 - eig and has degree
    n - k - 1; with loops the complement is J - A, which maps eig -> -eig
    and has degree n - k.  The degree replaces the principal entry.  An
    integral spectrum maps to an integral one, built from ints.
    """
    n = s.n
    degree = n - k if loops else n - k - 1
    if s.integral is not None:
        ints = [(degree, 1)]
        for x, mult in _sp_prime(s.integral, s.principal):
            ints.append((-x if loops else -1 - x, mult))
        return Spectrum(ints, n=n, principal_value=degree)
    new_entries = [(Eig.from_exact(degree), 1)]
    for eig, mult in _sp_prime(s.entries, s.principal):
        x = eig.exact
        if x is not None:
            mapped = -x if loops else Surd(-1 - x.a, -x.b, x.d)
            new_entries.append((Eig.from_exact(mapped), mult))
        else:
            v = -eig.value if loops else -1.0 - eig.value
            new_entries.append((Eig.from_approx(v, eig.radius), mult))
    return Spectrum(new_entries, n=n, principal_value=degree)


@dataclass(frozen=True)
class EquienReport:
    equal: bool
    delta: Optional[ExactValue]
    energy: Union[ExactValue, Approximate]
    energy_complement: Union[ExactValue, Approximate]
    routes_agree: bool


def _energies_consistent(equal: bool, e1, e2) -> bool:
    if isinstance(e1, ExactValue) and isinstance(e2, ExactValue):
        return (e1 == e2) == equal
    v1, r1 = (e1.value, e1.radius) if isinstance(e1, Approximate) else (float(e1), 0.0)
    v2, r2 = (e2.value, e2.radius) if isinstance(e2, Approximate) else (float(e2), 0.0)
    overlap = abs(v1 - v2) <= r1 + r2 + 1e-12
    if equal:
        return overlap
    return True  # intervals cannot refute a strict inequality verdict


def check_equienergetic(s: Spectrum, k: int, loops: bool = False,
                        assume_exact: bool = False) -> EquienReport:
    """Decide E(graph) == E(complement) for a k-regular spectrum.

    Criterion route: n == 2k + 1 - Delta (loopless), or n == 2k with
    loops, where both energies share the sum of |eig| over Sp' and add
    the degrees k and n - k.  The energy route recomputes both energies
    through complement_spectrum as an independent cross-check.
    """
    n = s.n
    if loops:
        delta = None
        equal = n == 2 * k
    else:
        delta = discrepancy(s, assume_exact=assume_exact).delta_total
        equal = delta == 2 * k + 1 - n
    e_graph = energy(s)
    e_comp = energy(complement_spectrum(s, k, loops=loops))
    agree = _energies_consistent(equal, e_graph, e_comp)
    return EquienReport(equal=equal, delta=delta, energy=e_graph,
                        energy_complement=e_comp, routes_agree=agree)


def spectra_match(numeric: Spectrum, exact: Spectrum, tol: float = 1e-7) -> bool:
    """Entrywise agreement with multiplicity grouping at tolerance ``tol``."""
    if numeric.n != exact.n:
        return False
    for eig, mult in exact.entries:
        target = float(eig.exact) if eig.exact is not None else eig.value
        got = sum(m for e, m in numeric.entries if abs(e.value - target) <= tol)
        if got != mult:
            return False
    total = sum(m for _, m in numeric.entries)
    return total == exact.n
