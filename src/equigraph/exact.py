"""Exact arithmetic over rationals extended by square roots.

Two value types:

* ``Surd`` -- a single-radicand number ``a + b*sqrt(D)`` with rational
  ``a, b`` and squarefree integer ``D >= 0``.  Supports field arithmetic
  within one radicand and a fully exact total order across radicands
  (sign analysis by repeated rational squaring, never floating point).
* ``ExactValue`` -- a finite sum ``sum c_D * sqrt(D)`` over distinct
  squarefree radicands (``D = 1`` holds the rational part).  Used to
  accumulate energies and discrepancy totals whose terms may carry
  different radicands.  Equality is coefficient-wise; order against a
  rational threshold is decided by adaptive-precision integer-sqrt
  intervals, which terminates because equality is decided first.

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
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def squarefree_decompose(d: int) -> tuple[int, int]:
    """Write ``d = f*f * s`` with ``s`` squarefree; returns ``(f, s)``."""
    if d < 0:
        raise ValueError("radicand must be nonnegative")
    if d in (0, 1):
        return 1, d
    f = 1
    s = d
    p = 2
    while p * p <= s:
        while s % (p * p) == 0:
            s //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return f, s


_EXACT_FLOAT_INT = 2 ** 53
_ZERO = Fraction(0)


class Surd:
    """Canonical ``a + b*sqrt(D)``: D squarefree, and D == 1 whenever b == 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
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
        return format_surd(self)

    def __hash__(self):
        # canonical form: equal surds have equal numerators and denominators
        a, b = self.a, self.b
        return hash((a.numerator, a.denominator, b.numerator, b.denominator, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        if not self.b:
            return float(self.a)
        return float(self.a) + float(self.b) * (self.d ** 0.5)

    def float_error(self) -> float:
        """An upper bound on ``|float(self) - self|``.

        ``float(a)`` is correctly rounded and ``d ** 0.5`` is within an ulp,
        so the error is at most a few units in the last place of the two
        parts: 2**-52 relative for a rational, 2**-50 relative to
        ``|a| + |b|*sqrt(d)`` otherwise, plus the subnormal spacing.
        Integers of magnitude at most 2**53 convert exactly.
        """
        a, b = self.a, self.b
        if not b:
            if a.denominator == 1 and -_EXACT_FLOAT_INT <= a.numerator <= _EXACT_FLOAT_INT:
                return 0.0
            return abs(float(a)) * 2.0 ** -52 + 2.0 ** -1072
        return (abs(float(a)) + abs(float(b)) * self.d ** 0.5) * 2.0 ** -50 + 2.0 ** -1072

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
        return Surd(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = Surd._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Surd._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_radicand(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return Surd(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        if not self:
            raise ZeroDivisionError("surd division by zero")
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            # cannot happen for squarefree d > 1 with a, b != 0
            raise ZeroDivisionError("degenerate surd norm")
        return Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = Surd._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._join_radicand(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Surd(other) / self

    def __abs__(self) -> "Surd":
        return self if self.sign() >= 0 else -self

    # -- exact ordering ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(d)`` by rational squaring."""
        a, b, d = self.a, self.b, self.d
        if not b:
            return _sign(a.numerator)
        if a == 0:
            return _sign(b)
        sa, sb = _sign(a), _sign(b)
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b|*sqrt(d)  <=>  a^2 vs b^2 d
        t = a * a - b * b * Fraction(d)
        return sa * _sign(t)

    def compare(self, other) -> int:
        """Exact three-way comparison, allowing different radicands."""
        other = Surd._coerce(other)
        x, y = self, other
        if x.b == y.b and x.d == y.d:
            # shared radical part: ordering reduces to the rational parts
            return _sign(x.a - y.a)
        if x.b == 0 or y.b == 0 or x.d == y.d:
            d = x._join_radicand(y)
            return Surd(x.a - y.a, x.b - y.b, d).sign()
        # x - y = (ax - ay) + bx*sqrt(dx) - by*sqrt(dy);
        # compare L = (ax - ay) + bx*sqrt(dx) against R = by*sqrt(dy).
        left = Surd(x.a - y.a, x.b, x.d)
        sl = left.sign()
        sr = _sign(y.b)
        if sl != sr:
            return 1 if sl > sr else -1
        if sl == 0:
            return 0
        # same nonzero sign: square both sides (single radicand remains)
        a, b = left.a, left.b
        sq_diff = Surd(a * a + b * b * x.d - y.b * y.b * Fraction(y.d), 2 * a * b, x.d)
        return sq_diff.sign() if sl > 0 else -sq_diff.sign()

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

    # -- misc -------------------------------------------------------------

    def bounds(self, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the value, sharp to ~2**-prec_bits."""
        if self.b == 0:
            return self.a, self.a
        scale = 1 << prec_bits
        root = isqrt(self.d * scale * scale)
        lo = Fraction(root, scale)
        hi = Fraction(root + 1, scale)
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo


# -- text rendering --------------------------------------------------------

def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_surd(s: Surd) -> str:
    if s.b == 0:
        return _format_fraction(s.a)
    root = f"sqrt({s.d})"
    babs = abs(s.b)
    bpart = root if babs == 1 else f"{_format_fraction(babs)}*{root}"
    if s.a == 0:
        return bpart if s.b > 0 else f"-{bpart}"
    op = "+" if s.b > 0 else "-"
    return f"{_format_fraction(s.a)} {op} {bpart}"


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
    def from_surd(cls, s: Surd) -> "ExactValue":
        return cls([(1, s.a), (s.d, s.b)])

    @classmethod
    def from_rational(cls, q: RationalLike) -> "ExactValue":
        return cls([(1, q)])

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
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return all(d == 1 for d, _ in self._terms)

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self.rational_part.denominator == 1

    @property
    def rational_part(self) -> Fraction:
        return self.coefficient(1)

    def __repr__(self):
        return f"ExactValue({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # each term as format_surd renders it; the radicands are already
        # squarefree, so no Surd is built
        parts = []
        for d, c in self._terms:
            mag = abs(c)
            if d == 1:
                piece = _format_fraction(mag)
            elif mag == 1:
                piece = f"sqrt({d})"
            else:
                piece = f"{_format_fraction(mag)}*sqrt({d})"
            if parts:
                parts.append(("+ " if c > 0 else "- ") + piece)
            else:
                parts.append(piece if c > 0 else "-" + piece)
        return " ".join(parts)

    def __hash__(self):
        return hash(self._terms)

    def __float__(self) -> float:
        return sum((float(c) * (d ** 0.5) for d, c in self._terms), 0.0)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactValue":
        if isinstance(x, ExactValue):
            return x
        if isinstance(x, Surd):
            return ExactValue.from_surd(x)
        if isinstance(x, (int, Fraction)):
            return ExactValue.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = ExactValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactValue(self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self):
        return ExactValue([(d, -c) for d, c in self._terms])

    def __sub__(self, other):
        other = ExactValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, q: RationalLike) -> "ExactValue":
        q = Fraction(q)
        return ExactValue([(d, c * q) for d, c in self._terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    # -- exact comparison ----------------------------------------------------

    def __eq__(self, other):
        other = ExactValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # sqrt(D) over distinct squarefree D are linearly independent over Q
        return self._terms == other._terms

    def bounds(self, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
        lo = Fraction(0)
        hi = Fraction(0)
        for d, c in self._terms:
            tlo, thi = Surd(0, c, d).bounds(prec_bits)
            lo += tlo
            hi += thi
        return lo, hi

    def compare(self, other) -> int:
        other = ExactValue._coerce(other)
        diff = self - other
        if diff.is_zero:
            return 0
        if diff.is_rational:
            return _sign(diff.rational_part)
        prec = 64
        while True:
            lo, hi = diff.bounds(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0


def exact_sum(values: Iterable[tuple[Surd, int]]) -> ExactValue:
    """Multiset sum of (surd, multiplicity) pairs, accumulated per radicand.

    Numerators are summed as integers per (radicand, denominator), so no
    ``Fraction`` is built per entry.  A ``Surd``'s radicand is squarefree
    already, so the sum also skips the squarefree pass of the generic
    ``ExactValue`` constructor.
    """
    acc: dict[tuple[int, int], int] = {}
    for s, mult in values:
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        a, b = s.a, s.b
        key = (1, a.denominator)
        acc[key] = acc.get(key, 0) + a.numerator * mult
        if b:
            key = (s.d, b.denominator)
            acc[key] = acc.get(key, 0) + b.numerator * mult
    coefficients: dict[int, Fraction] = {}
    for (d, den), num in acc.items():
        coefficients[d] = coefficients.get(d, 0) + Fraction(num, den)
    return ExactValue._from_squarefree(coefficients)
