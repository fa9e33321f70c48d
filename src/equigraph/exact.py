"""Exact arithmetic over rationals extended by square roots.

Two value types:

* ``Surd`` -- a single-radicand number ``a + b*sqrt(D)`` with rational
  ``a, b`` and squarefree integer ``D >= 0``.  Supports sums and products
  within one radicand and a fully exact total order across radicands
  (sign analysis by repeated rational squaring, never floating point).
* ``ExactValue`` -- a finite sum ``sum c_D * sqrt(D)`` over distinct
  squarefree radicands (``D = 1`` holds the rational part).  Used to
  accumulate energies and discrepancy totals whose terms may carry
  different radicands.  Equality is coefficient-wise.

Rationals are ``fractions.Fraction`` throughout, so all integers are
arbitrary precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "Surd",
    "ExactValue",
    "exact_sum",
]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of ``a + b*sqrt(d)``: when a and b differ in sign, compare
    a^2 with b^2 d."""
    sa, sb = _sign(a.numerator), _sign(b.numerator)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa * _sign((a * a - b * b * d).numerator)


# trial division up to sqrt(n) takes about 0.3 s at this bound
TRIAL_DIVISION_MAX = 10 ** 14


def smallest_prime_factor(n: int, start: int = 2) -> int:
    """The least prime factor of ``n >= 2``, by trial division from ``start``;
    ``n`` has no factor below ``start``.  Returns ``n`` when it is prime.

    Raises ValueError above the trial-division bound.
    """
    if n > TRIAL_DIVISION_MAX:
        raise ValueError(f"{n} is above the trial-division bound {TRIAL_DIVISION_MAX}")
    if start <= 2 and n % 2 == 0:
        return 2
    for p in range(max(start, 3) | 1, isqrt(n) + 1, 2):
        if n % p == 0:
            return p
    return n


def squarefree_decompose(d: int) -> tuple[int, int]:
    """Write ``d = f*f * s`` with ``s`` squarefree; returns ``(f, s)``.

    Raises ValueError above the trial-division bound.
    """
    if d < 0:
        raise ValueError("radicand must be nonnegative")
    if d == 0:
        return 1, 0
    f = s = 1
    p = 2
    while d > 1:
        p = smallest_prime_factor(d, p)
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        f *= p ** (e // 2)
        if e % 2:
            s *= p
    return f, s


_ZERO = Fraction(0)


class Surd:
    """Canonical ``a + b*sqrt(D)``: D squarefree, and D == 1 whenever b == 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        if type(a) is int and not b and d == 1:  # a plain int is canonical as it stands
            self.a = Fraction(a)
            self.b = _ZERO
            self.d = 1
            return
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b) if b else _ZERO
        d = int(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b:
            f, s = squarefree_decompose(d)
            b *= f
            d = s
            if d == 0:
                b = _ZERO
                d = 1
            elif d == 1:
                a += b
                b = _ZERO
        if not b:
            d = 1
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, d: int) -> "Surd":
        """``Surd(a, b, d)`` for Fraction parts over a radicand ``d`` that is
        already squarefree, so nothing is factored; d becomes 1 when b == 0."""
        s = cls.__new__(cls)
        s.a = a
        s.b = b
        s.d = d if b else 1
        return s

    # -- basic protocol -------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def __repr__(self) -> str:
        return f"Surd({self})"

    def __str__(self) -> str:
        a = self.a
        if not self.b and a.denominator == 1:  # an integer, printed as the int
            return str(a.numerator)
        return _format_terms(((1, a), (self.d, self.b)))

    def __hash__(self):
        # canonical form: equal surds have equal numerators and denominators;
        # a rational surd equals its Fraction, so it hashes as one
        a, b = self.a, self.b
        if not b:
            return hash(a)
        return hash((a.numerator, a.denominator, b.numerator, b.denominator, self.d))

    def __float__(self) -> float:
        if not self.b:
            return float(self.a)
        return float(self.a) + float(self.b) * (self.d ** 0.5)

    # -- arithmetic (closed within a single radicand) --------------------

    @staticmethod
    def _coerce(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Fraction)):
            return Surd(x)
        return NotImplemented

    def _join_radicand(self, other: "Surd") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ValueError(
                f"mixed radicands sqrt({self.d}) and sqrt({other.d}); "
                "use ExactValue for cross-radicand sums"
            )
        return self.d

    def __add__(self, other):
        other = Surd._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_radicand(other)
        return Surd._canonical(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd._canonical(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = Surd._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_radicand(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return Surd._canonical(a, b, d)

    __rmul__ = __mul__

    def __abs__(self) -> "Surd":
        return self if self.sign() >= 0 else -self

    # -- exact ordering ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(d)``."""
        return _surd_sign(self.a, self.b, self.d)

    def compare(self, other) -> int:
        """Exact three-way comparison, allowing different radicands."""
        x, y = self, Surd._coerce(other)
        a = x.a - y.a
        if not y.b or x.d == y.d:
            return _surd_sign(a, x.b - y.b, x.d)
        if not x.b:
            return _surd_sign(a, -y.b, y.d)
        # x - y = L - R with L = a + bx*sqrt(dx) and R = by*sqrt(dy)
        sl = _surd_sign(a, x.b, x.d)
        sr = _sign(y.b.numerator)
        if sl != sr:
            return 1 if sl > sr else -1
        # same nonzero sign: L^2 - R^2 has the single radicand dx
        sq = _surd_sign(a * a + x.b * x.b * x.d - y.b * y.b * y.d, 2 * a * x.b, x.d)
        return sq if sl > 0 else -sq

    def __eq__(self, other):
        # canonical form makes equality a plain field comparison
        if isinstance(other, Surd):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0


# -- text rendering --------------------------------------------------------

def _format_terms(terms: Iterable[tuple[int, Fraction]]) -> str:
    """``c1*sqrt(d1) + c2*sqrt(d2) ...`` over (d, c) pairs in their order,
    with d == 1 for the rational part; zero terms are left out."""
    parts = []
    for d, c in terms:
        # int arithmetic on the parts: Fraction's own abs and comparisons
        # cost more than the rest of the rendering
        num, den = c.numerator, c.denominator
        if not num:
            continue
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        piece = mag if d == 1 else f"sqrt({d})" if mag == "1" else f"{mag}*sqrt({d})"
        if parts:
            parts.append(("- " if num < 0 else "+ ") + piece)
        else:
            parts.append("-" + piece if num < 0 else piece)
    return " ".join(parts) or "0"


format_surd = Surd.__str__


# -- multi-radicand sums ----------------------------------------------------

class ExactValue:
    """Immutable sum of rational multiples of sqrt(D) over squarefree D."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, RationalLike]] = ()):
        acc: dict[int, Fraction] = {}
        for d, c in terms:
            c = Fraction(c)
            if c == 0:
                continue
            f, s = squarefree_decompose(int(d))
            if s == 0:
                continue
            c *= f
            acc[s] = acc.get(s, Fraction(0)) + c
        self._terms = tuple(sorted((d, c) for d, c in acc.items() if c != 0))

    @classmethod
    def _from_squarefree(cls, acc: dict[int, RationalLike]) -> "ExactValue":
        """From per-radicand coefficients whose radicands are already squarefree."""
        value = cls.__new__(cls)
        value._terms = tuple(sorted((d, Fraction(c)) for d, c in acc.items() if c))
        return value

    @classmethod
    def from_rational(cls, q: RationalLike) -> "ExactValue":
        return cls._from_squarefree({1: q})

    # -- protocol ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def coefficient(self, d: int) -> Fraction:
        for dd, c in self._terms:
            if dd == d:
                return c
        return Fraction(0)

    @property
    def is_rational(self) -> bool:
        return all(d == 1 for d, _ in self._terms)

    @property
    def rational_part(self) -> Fraction:
        return self.coefficient(1)

    def __repr__(self):
        return f"ExactValue({self})"

    def __str__(self) -> str:
        return _format_terms(self._terms)

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as one
        return hash(self.rational_part) if self.is_rational else hash(self._terms)

    def __float__(self) -> float:
        return sum((float(c) * (d ** 0.5) for d, c in self._terms), 0.0)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactValue":
        if isinstance(x, ExactValue):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactValue.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = ExactValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:  # values are immutable, so 0 + x can be x itself
            return other
        acc = dict(self._terms)
        for d, c in other._terms:
            acc[d] = acc.get(d, 0) + c
        return ExactValue._from_squarefree(acc)

    __radd__ = __add__

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        other = ExactValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # sqrt(D) over distinct squarefree D are linearly independent over Q
        return self._terms == other._terms


def exact_sum(values: Iterable[tuple[Union[int, Surd], int]]) -> ExactValue:
    """Multiset sum of (int or surd, multiplicity) pairs, accumulated per radicand.

    Numerators are summed as integers per (radicand, denominator), so no
    ``Fraction`` is built per entry.  A ``Surd``'s radicand is squarefree
    already, so the sum also skips the squarefree pass of the generic
    ``ExactValue`` constructor.
    """
    acc: dict[tuple[int, int], int] = {}
    for s, mult in values:
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        a, b = (s, 0) if type(s) is int else (s.a, s.b)
        key = (1, a.denominator)
        acc[key] = acc.get(key, 0) + a.numerator * mult
        if b:
            key = (s.d, b.denominator)
            acc[key] = acc.get(key, 0) + b.numerator * mult
    coefficients: dict[int, Fraction] = {}
    for (d, den), num in acc.items():
        coefficients[d] = coefficients.get(d, 0) + Fraction(num, den)
    return ExactValue._from_squarefree(coefficients)
