"""Spectrum model, discrepancy invariants and the equienergy criterion.

A regular graph and its loopless complement are equienergetic exactly
when ``n == 2k + 1 - Delta`` where ``Delta`` is the spectral
discrepancy: the sum of ``|1 + x| - |x|`` over the spectrum with one
copy of the degree removed.  Everything here is decided in exact
arithmetic whenever the eigenvalues are exact; a certified floating entry
is admitted only when its interval lies in (-inf, -1] or [0, inf), and is
compared with another value only within its certified radius (``_agree``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from typing import Iterable, Optional, Union

from .exact import ExactValue, Surd, exact_sum, format_surd

__all__ = [
    "UncertifiableBranch",
    "Eig",
    "Spectrum",
    "DiscrepancyBreakdown",
    "EquienReport",
    "delta_branch",
    "discrepancy",
    "energy",
    "complement_spectrum",
    "check_equienergetic",
    "spectra_match",
]

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
    def lo(self) -> float:
        return self.value - self.radius

    @property
    def hi(self) -> float:
        return self.value + self.radius

    def __str__(self) -> str:
        if self.exact is not None:
            return format_surd(self.exact)
        return f"{self.value!r}(+-{self.radius:g})"


Value = Union[int, Surd, Eig]


def _value(x) -> Value:
    """The stored form of an eigenvalue: an int, a Surd that is not an
    integer, or an interval Eig.  An exact Eig, a Surd or a Fraction is
    reduced to the first two."""
    if type(x) is Eig:
        if x.exact is None:
            return x
        x = x.exact
    elif type(x) is not Surd:
        x = Surd(x)
    return x.a.numerator if x.is_integer else x


def _float(x: Value) -> float:
    return x.value if type(x) is Eig else float(x)


def _agree(x, y) -> bool:
    """Whether two values can be equal: |x - y| is at most the sum of their
    certified radii, radius 0 for an exact int, Surd or ExactValue."""
    if type(x) is not Eig and type(y) is not Eig:
        return x == y
    radius = (x.radius if type(x) is Eig else 0.0) + (y.radius if type(y) is Eig else 0.0)
    return abs(_float(x) - _float(y)) <= radius


class Spectrum:
    """Multiset of eigenvalues with multiplicities, sorted descending.

    ``values`` holds ``(value, mult)`` pairs, where a value is an int, a
    ``Surd`` that is not an integer, or an interval ``Eig``; the consumers
    below walk it once, switching on the value's type.  Equal exact values
    merge and sort in exact order; intervals never merge, sort by float
    value and then radius, and join the exact values by float value, exact
    first on ties.  ``n`` is the sum of the multiplicities.  The first
    value is read as the degree: the largest eigenvalue of a k-regular
    graph is k (Brouwer-Haemers, *Spectra of Graphs*, section 3.1).  In a
    numeric complement an interval a rounding error above the exact degree
    can sort ahead of it; only the energy of such a spectrum is taken,
    and that sums every value.  A spectrum is not changed after it is built.

    The constructor also takes exact ``Eig``s, Surds and Fractions, which
    it reduces to values, and an int is stored as it is given.
    """

    __slots__ = ("values", "n", "_entries")

    def __init__(self, values: Iterable[tuple[object, int]]):
        exact: dict[Value, int] = {}
        intervals = []
        for x, mult in values:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if type(x) is not int:
                x = _value(x)
                if type(x) is Eig:
                    intervals.append((x, mult))
                    continue
            exact[x] = exact.get(x, 0) + mult
        # ints compare natively, and a Surd against either by Surd.compare
        ordered = sorted(exact.items(), reverse=True)
        if intervals:
            intervals.sort(key=lambda entry: (-entry[0].value, entry[0].radius))
            # merge is stable: an exact value goes first on a float tie
            ordered = list(merge(ordered, intervals, key=lambda entry: -_float(entry[0])))
        self.values = tuple(ordered)
        self.n = sum(m for _, m in ordered)
        self._entries = None

    @property
    def entries(self) -> tuple[tuple[Eig, int], ...]:
        """The values as ``(Eig, mult)`` pairs, built the first time they are read."""
        if self._entries is None:
            self._entries = tuple((x if type(x) is Eig else Eig.from_exact(x), m)
                                  for x, m in self.values)
        return self._entries

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        inner = ", ".join(f"[{x}]^{m}" for x, m in self.values)
        return f"Spectrum({{{inner}}}, n={self.n})"

    # -- JSON wire format ---------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for x, mult in self.values:
            value = {"approx": x.value, "radius": x.radius} if type(x) is Eig else str(x)
            entries.append({"value": value, "mult": mult})
        return {"n": self.n, "entries": entries, "principal": 0}


# -- delta and the discrepancy ------------------------------------------------


def _assumed_value(e: Eig) -> Fraction:
    """assume-exact reading of an interval: the midpoint, snapped to the
    nearest integer when that integer lies within the interval's own radius
    (numeric spectra of integral graphs land there)."""
    nearest = round(e.value)
    if _agree(e, nearest):
        return Fraction(nearest)
    return Fraction(e.value)


def _point(x: Union[Surd, Eig]) -> Surd:
    """A Surd as it is, or the assume-exact reading of an interval."""
    return Surd(_assumed_value(x)) if type(x) is Eig else x


_ONE = Surd(1)
_MINUS_ONE = Surd(-1)


def delta_branch(x: Union[Surd, Eig], assume_exact: bool = False) -> str:
    """The discrepancy term an eigenvalue x feeds: 'sigma+' (x >= 1),
    'sigma-' (x <= -1), 'm0' (x == 0), 'T' (0 < x < 1) or 'S' (-1 < x < 0).

    ``x`` is a Surd or an interval Eig (``discrepancy`` decides an int by
    its sign).  A Surd is decided by its exact sign and its exact
    comparison with 1 or -1.  An interval is decided by containment, at
    any radius: every value in (-inf, -1] adds -1 to delta and every value
    in [0, inf) adds +1.  One in [0, inf) that reaches 1 counts as 'sigma+'
    whatever its midpoint's last digits, so the sigma/T split does not
    depend on the vertex labelling.  Any other interval raises
    ``UncertifiableBranch``, unless ``assume_exact`` reads it as the point
    ``_assumed_value`` and decides that exactly.
    """
    if type(x) is Eig:
        e = x
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
    S     -- sum of 2*eig + 1 over eigenvalues in (-1, 0); the int 0 when
             no eigenvalue lies there, an ExactValue otherwise.
    """

    sigma: int
    T: int
    m0: int
    S: Union[int, ExactValue]

    @property
    def delta_total(self) -> Union[int, ExactValue]:
        """An int when S is, as it is for every all-int spectrum."""
        return self.S + (self.sigma + self.T + self.m0)


def _sp_prime(pairs: tuple) -> tuple:
    """Spectrum pairs with exactly one copy of the first value, the degree, removed."""
    if not pairs or pairs[0][1] == 1:
        return pairs[1:]
    return ((pairs[0][0], pairs[0][1] - 1),) + pairs[1:]


def discrepancy(s: Spectrum, assume_exact: bool = False) -> DiscrepancyBreakdown:
    """Exact discrepancy of a regular spectrum, over Sp' = Spec minus one degree copy.

    Each value adds its multiplicity to the count of its ``delta_branch``,
    except that an S-branch value x adds (2x + 1)·mult to S.  An int's
    branch is its sign, as no integer lies in (0, 1) or (-1, 0).  With no
    S-branch value, as in every all-int spectrum, S is the int 0.
    """
    sigma = t_count = m0 = 0
    s_terms = []
    for x, mult in _sp_prime(s.values):
        if type(x) is int:
            if x:
                sigma += mult if x > 0 else -mult
            else:
                m0 += mult
            continue
        branch = delta_branch(x, assume_exact)
        if branch == "S":
            s_terms.append((_point(x) * 2 + 1, mult))
        elif branch == "T":
            t_count += mult
        elif branch == "m0":
            m0 += mult
        else:
            sigma += mult if branch == "sigma+" else -mult
    return DiscrepancyBreakdown(sigma=sigma, T=t_count, m0=m0,
                                S=exact_sum(s_terms) if s_terms else 0)


def energy(s: Spectrum) -> Union[int, ExactValue, Eig]:
    """Sum of |eigenvalue| * multiplicity: an int when every value is an
    int, an ExactValue when every value is exact and some value is a Surd,
    and otherwise an interval Eig whose radius adds up the interval radii."""
    rational = 0
    surds = []
    for x, mult in s.values:
        if type(x) is int:
            rational += abs(x) * mult
        elif type(x) is Surd:
            surds.append((abs(x), mult))
        else:
            return _approximate_energy(s)
    return exact_sum(surds) + rational if surds else rational


def _approximate_energy(s: Spectrum) -> Eig:
    value = radius = 0.0
    for x, mult in s.values:
        if type(x) is Eig:
            value += abs(x.value) * mult
            radius += x.radius * mult
        else:
            value += abs(float(x)) * mult
    return Eig.from_approx(value, radius)


def complement_spectrum(s: Spectrum, k: int, loops: bool = False) -> Spectrum:
    """Spectrum of the complement of a k-regular graph with spectrum ``s``.

    The loopless complement J - I - A maps eig -> -1 - eig and has degree
    n - k - 1; with loops the complement is J - A, which maps eig -> -eig
    and has degree n - k.  The degree replaces the first value.
    """
    n = s.n
    degree = n - k if loops else n - k - 1
    values = [(degree, 1)]
    for x, mult in _sp_prime(s.values):
        if type(x) is int:
            y = -x if loops else -1 - x
        elif type(x) is Surd:
            y = -x if loops else Surd._canonical(-1 - x.a, -x.b, x.d)
        else:
            y = Eig.from_approx(-x.value if loops else -1.0 - x.value, x.radius)
        values.append((y, mult))
    return Spectrum(values)


@dataclass(frozen=True)
class EquienReport:
    """The verdict of ``check_equienergetic`` with what both routes computed.

    delta             -- Delta of the criterion route, None with loops;
    energy            -- E(graph), from ``energy``;
    energy_complement -- E(complement), from ``energy`` of ``complement_spectrum``;
    routes_agree      -- whether the energies bear the criterion's verdict out.

    An integral value is an int, another exact one an ExactValue, and an
    energy over interval eigenvalues an interval Eig.
    """

    equal: bool
    delta: Optional[Union[int, ExactValue]]
    energy: Union[int, ExactValue, Eig]
    energy_complement: Union[int, ExactValue, Eig]
    routes_agree: bool


def _energies_consistent(equal: bool, e1, e2) -> bool:
    agree = _agree(e1, e2)
    if type(e1) is Eig or type(e2) is Eig:
        return agree or not equal  # intervals cannot refute a strict inequality verdict
    return agree == equal  # exact: an int or an ExactValue


def check_equienergetic(s: Spectrum, k: int, loops: bool = False,
                        assume_exact: bool = False) -> EquienReport:
    """Decide E(graph) == E(complement) for a k-regular spectrum.

    Criterion route: n == 2k + 1 - Delta (loopless), or n == 2k with
    loops, where both energies share the sum of |eig| over Sp' and add
    the degrees k and n - k.  The energy route recomputes both energies
    through complement_spectrum as an independent cross-check.  For an
    all-int spectrum both routes compare ints: delta with 2k + 1 - n, and
    the two energies with each other.
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


def spectra_match(numeric: Spectrum, exact: Spectrum) -> bool:
    """Whether two spectra can be equal: each value of ``exact`` has the total
    multiplicity of the values of ``numeric`` that ``_agree`` with it."""
    if numeric.n != exact.n:
        return False
    return all(sum(m for y, m in numeric.values if _agree(y, x)) == mult
               for x, mult in exact.values)
