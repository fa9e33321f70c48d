"""Arithmetic in GF(p^m) with fixed, reproducible moduli.

Elements are integers in ``range(q)`` encoding coefficient vectors in
base p (digit i = coefficient of x^i).  The modulus is the Conway
polynomial when it is in the embedded table; otherwise the
lexicographically smallest monic irreducible of the right degree is
used, so element labels are identical across runs either way.
"""

from __future__ import annotations

from itertools import product

from .exact import smallest_prime_factor

__all__ = ["GF", "is_prime", "prime_power_decompose", "is_prime_power"]


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def prime_power_decompose(q: int):
    """Return (p, m) with q = p**m, or None when q is not a prime power.

    Raises ValueError above the trial-division bound.
    """
    if q < 2:
        return None
    p = smallest_prime_factor(q)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


def is_prime_power(q: int) -> bool:
    return prime_power_decompose(q) is not None


# Conway polynomials, stored as ascending coefficient tuples including the
# leading 1.  Only degrees >= 2 matter (prime fields need no modulus).
_CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
}


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Product of coefficient tuples reduced mod (modulus, p)."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce: x^m = -(modulus minus leading term)
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i in range(m):
                prod[deg - m + i] = (prod[deg - m + i] - c * modulus[i]) % p
    out = prod[:m]
    while len(out) < m:
        out.append(0)
    return tuple(out)


def _poly_pow(base: tuple, e: int, modulus: tuple, p: int) -> tuple:
    """base**e mod (modulus, p), by square and multiply."""
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a: list, b: list, p: int) -> list:
    a = [c % p for c in a]
    b = [c % p for c in b]

    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], p - 2, p) if p > 2 else b[-1]
        db, da = len(b) - 1, len(a) - 1
        while da >= db and a:
            coef = a[-1] * inv % p
            shift = da - db
            for i, cb in enumerate(b):
                a[i + shift] = (a[i + shift] - coef * cb) % p
            a = strip(a)
            da = len(a) - 1
        a, b = b, a
    return a


def _is_irreducible(modulus: tuple, p: int) -> bool:
    """Rabin test: x^{p^m} == x mod f, and gcd(x^{p^{m/l}} - x, f) = 1."""
    m = len(modulus) - 1
    x = (0, 1) + (0,) * (m - 2)
    if _poly_pow(x, p ** m, modulus, p) != x:
        return False
    ls = {l for l in range(2, m + 1) if m % l == 0 and is_prime(l)}
    for l in ls:
        xe = _poly_pow(x, p ** (m // l), modulus, p)
        diff = [(xe[i] - x[i]) % p for i in range(m)]
        g = _poly_gcd(diff, list(modulus), p)
        if len(g) != 1:
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree m over GF(p)."""
    # the last digit of a product tuple runs fastest: it is the constant term
    for digits in product(range(p), repeat=m):
        modulus = digits[::-1] + (1,)
        if modulus[0] == 0:
            continue
        if _is_irreducible(modulus, p):
            return modulus
    raise RuntimeError(f"no irreducible polynomial found for GF({p}^{m})")


class GF:
    """The field GF(p^m); elements are ints < q encoding base-p digit vectors."""

    def __init__(self, q: int):
        decomp = prime_power_decompose(q)
        if decomp is None:
            raise ValueError(f"{q} is not a prime power")
        self.p, self.m = decomp
        self.q = q
        if self.m == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = _CONWAY.get((self.p, self.m)) or _smallest_irreducible(self.p, self.m)
            if not _is_irreducible(self.modulus, self.p):
                raise AssertionError(f"modulus table entry for GF({q}) is reducible")

    # -- encoding ----------------------------------------------------------

    def digits(self, x: int) -> tuple:
        out = []
        for _ in range(self.m):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, digits) -> int:
        x = 0
        for c in reversed(tuple(digits)):
            x = x * self.p + (c % self.p)
        return x

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x + y) % self.p
        return self.encode(a + b for a, b in zip(self.digits(x), self.digits(y)))

    def mul(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x * y) % self.p
        prod = _poly_mul_mod(self.digits(x), self.digits(y), self.modulus, self.p)
        return self.encode(prod)

    def pow(self, x: int, e: int) -> int:
        if self.m == 1:
            return pow(x, e, self.p)
        return self.encode(_poly_pow(self.digits(x), e, self.modulus, self.p))

    # -- multiplicative structure ------------------------------------------------

    def power_residues(self, k: int) -> frozenset[int]:
        """The set {x^k : x in GF(q)*}."""
        if (self.q - 1) % k != 0:
            raise ValueError(f"{k} does not divide q - 1 = {self.q - 1}")
        return frozenset(self.pow(x, k) for x in range(1, self.q))
