"""Unitary Cayley graphs of finite commutative rings, at parameter level.

A ring is carried as its Artin profile: the list of local factors
``(q_i, m_i)`` with residue field size ``q_i`` and maximal ideal size
``m_i``.  The spectrum, both equienergy decision routes and the odd
field-product search all work from the profile alone; concrete graphs
(for fields and Z modulo prime powers) live in ``graphs`` and are only
used for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable

from .fields import is_prime_power, prime_power_decompose
from .spectra import Spectrum, check_equienergetic

__all__ = [
    "RingProfile",
    "SubsetSums",
    "RingEquienReport",
    "unitary_spectrum",
    "subset_sums",
    "equien_check",
    "search_field_products",
    "profiles_with_order_up_to",
]

MAX_FACTORS = 24


@dataclass(frozen=True)
class RingProfile:
    """Ordered local factors (q_i, m_i); |R_i| = q_i * m_i, |R_i*| = m_i (q_i - 1)."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("profile needs at least one local factor")
        if len(self.factors) > MAX_FACTORS:
            raise ValueError(f"more than {MAX_FACTORS} local factors")
        for q, m in self.factors:
            decomp = prime_power_decompose(q)
            if decomp is None:
                raise ValueError(f"residue field size {q} is not a prime power")
            p = decomp[0]
            if m < 1:
                raise ValueError(f"ideal size {m} must be at least 1")
            t = m
            while t % p == 0:
                t //= p
            if t != 1:
                raise ValueError(
                    f"ideal size {m} is not a power of the residue characteristic {p}"
                )

    @classmethod
    def of(cls, *factors: tuple[int, int]) -> "RingProfile":
        return cls(tuple((int(q), int(m)) for q, m in factors))

    @classmethod
    def parse(cls, text: str) -> "RingProfile":
        """Parse 'q1:m1,q2:m2,...'."""
        factors = []
        for chunk in text.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 2:
                raise ValueError(f"bad profile chunk {chunk!r}; expected q:m")
            factors.append((int(parts[0]), int(parts[1])))
        return cls.of(*factors)

    @property
    def s(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return prod(q * m for q, m in self.factors)

    @property
    def units(self) -> int:
        return prod(m * (q - 1) for q, m in self.factors)

    @property
    def ideal_product(self) -> int:
        return prod(m for _, m in self.factors)

    def is_field_product(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def __str__(self):
        return ",".join(f"{q}:{m}" for q, m in self.factors)


def _subset_products(xs: Iterable[int]) -> dict[int, int]:
    """``(-1)^{|C|} prod_{i in C} x_i`` -> number of index subsets C giving it.

    Built by a per-factor convolution: each factor either stays out of C
    or multiplies in with a sign flip, so equal products from different
    subsets share one slot instead of being listed 2^s times.
    """
    counts = {1: 1}
    for x in xs:
        nxt = dict(counts)
        for p, c in counts.items():
            nxt[-p * x] = nxt.get(-p * x, 0) + c
        counts = nxt
    return counts


def unitary_spectrum(profile: RingProfile) -> Spectrum:
    """Eigenvalues of X(R, R*) from the profile.

    Every subset C of the factor index set contributes the eigenvalue
    (-1)^{|C|} |R*| / prod_{j in C} (q_j - 1) with multiplicity
    prod_{j in C} (q_j - 1); zero fills up the remaining |R| - prod q_i
    slots.  Coinciding eigenvalues from different subsets are merged.
    """
    units = profile.units
    qs = [q for q, _ in profile.factors]
    eig_mult: dict[int, int] = {}
    for p_c, count in _subset_products(q - 1 for q in qs).items():
        lam = units // p_c  # sign included: p_c carries (-1)^{|C|}
        eig_mult[lam] = eig_mult.get(lam, 0) + count * abs(p_c)
    zero_mult = profile.order - prod(qs)
    if zero_mult:
        eig_mult[0] = eig_mult.get(0, 0) + zero_mult
    spec = Spectrum(eig_mult.items(), principal_value=units)
    assert spec.n == profile.order
    return spec


@dataclass(frozen=True)
class SubsetSums:
    S_e: int
    S_o: int
    M: int
    full_product: int


def subset_sums(profile: RingProfile) -> SubsetSums:
    """S_e over even 0 < |C| < s and S_o over odd |C| < s of prod_{j in C} (q_j - 1)."""
    s = profile.s
    qs = [q for q, _ in profile.factors]
    full = prod(q - 1 for q in qs)
    products = _subset_products(q - 1 for q in qs)
    s_even = sum(p * c for p, c in products.items() if p > 0) - 1  # drop C = {}
    s_odd = -sum(p * c for p, c in products.items() if p < 0)
    if s % 2 == 0:
        s_even -= full  # drop C = the whole index set
    else:
        s_odd -= full
    assert s_even + s_odd + 1 + full == prod(qs), "subset identity violated"
    return SubsetSums(S_e=s_even, S_o=s_odd, M=profile.ideal_product, full_product=full)


@dataclass(frozen=True)
class RingEquienReport:
    equal: bool


def _closed_route(profile: RingProfile) -> bool:
    s = profile.s
    if s == 1:
        q, m = profile.factors[0]
        return m == q
    sums = subset_sums(profile)
    if s % 2 == 0:
        return s == 2 and profile.is_field_product()
    return sums.M * sums.S_e + (sums.M - 1) * (1 + sums.S_o) == sums.full_product


def equien_check(profile: RingProfile) -> RingEquienReport:
    """Both equienergy decision routes; they must agree or something is broken."""
    spectrum = unitary_spectrum(profile)
    by_delta = check_equienergetic(spectrum, k=profile.units).equal
    by_closed_form = _closed_route(profile)
    if by_delta != by_closed_form:
        raise AssertionError(
            f"decision routes disagree on profile {profile}: "
            f"delta={by_delta}, closed={by_closed_form}"
        )
    return RingEquienReport(equal=by_delta)


# -- odd field-product search ---------------------------------------------------------


def search_field_products(s: int, q_max: int) -> list[tuple[int, ...]]:
    """All nondecreasing prime-power tuples (q_1 <= ... <= q_s) whose product
    of fields is complementary equienergetic, for odd s >= 3.

    The field condition S_e = prod(q_i - 1) is equivalent to
    ``sum over odd-size proper subsets D of 1/prod_{i in D}(q_i - 1) == 1``,
    which is strictly decreasing in every q_i; the recursion prunes on
    that monotonicity.  Every hit is re-verified through equien_check.
    """
    if s % 2 == 0 or s < 3:
        raise ValueError("search applies to odd s >= 3")
    if s > 7:
        raise ValueError("s capped at 7")
    if q_max > 512:
        raise ValueError("q_max capped at 512")
    qs = [q for q in range(3, q_max + 1) if is_prime_power(q)]
    hits: list[tuple[int, ...]] = []

    def partial_sum(chosen: list[int], pad: int | None) -> Fraction:
        """The odd-proper-subset reciprocal sum with remaining slots at x = pad
        (None means remaining terms vanish, the limit of large fields).

        Over all subsets, the odd ones sum to (prod(1 + r_i) - prod(1 - r_i))/2
        with r_i = 1/x_i; s is odd, so the full set is odd and is taken out.
        A vanishing slot has r = 0.
        """
        rs = [Fraction(1, q - 1) for q in chosen]
        rs += [Fraction(0) if pad is None else Fraction(1, pad - 1)] * (s - len(chosen))
        return (prod(1 + r for r in rs) - prod(1 - r for r in rs)) / 2 - prod(rs)

    def recurse(chosen: list[int], start_idx: int):
        if len(chosen) == s:
            if partial_sum(chosen, None) == 1:
                profile = RingProfile.of(*[(q, 1) for q in chosen])
                if equien_check(profile).equal:
                    hits.append(tuple(chosen))
            return
        for idx in range(start_idx, len(qs)):
            q = qs[idx]
            # largest achievable value fills the remaining slots with q itself
            if partial_sum(chosen + [q], q) < 1:
                break  # even larger q only shrinks the sum
            # smallest achievable value sends the remaining fields to infinity
            if partial_sum(chosen + [q], None) > 1:
                continue
            recurse(chosen + [q], idx)

    recurse([], 0)
    return sorted(hits)


# -- profile enumeration (for sweeps) ----------------------------------------------------


def _local_descriptors(max_size: int) -> list[tuple[int, int]]:
    """All (q, m) with q * m <= max_size: every split of a prime power p^e."""
    out = []
    for size in range(2, max_size + 1):
        decomp = prime_power_decompose(size)
        if decomp is None:
            continue
        p, e = decomp
        for i in range(e):
            out.append((p ** (e - i), p ** i))
    return out


def profiles_with_order_up_to(s: int, max_order: int) -> Iterable[RingProfile]:
    """All profiles with exactly s local factors and |R| <= max_order,
    one representative per multiset (factor sizes nondecreasing)."""
    descriptors = sorted(_local_descriptors(max_order),
                         key=lambda qm: (qm[0] * qm[1], qm[0], qm[1]))

    def recurse(chosen: list[tuple[int, int]], start: int, order: int):
        if len(chosen) == s:
            yield RingProfile.of(*chosen)
            return
        remaining = s - len(chosen)
        for idx in range(start, len(descriptors)):
            q, m = descriptors[idx]
            size = q * m
            # descriptors are size-sorted, so every later choice is at least
            # this large; the whole branch dies once size^remaining overflows
            if order * size ** remaining > max_order:
                break
            yield from recurse(chosen + [(q, m)], idx, order * size)

    yield from recurse([], 0, 1)
