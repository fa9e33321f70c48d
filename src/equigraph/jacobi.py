"""Round-robin parallel Jacobi eigensolver for dense symmetric matrices.

This is the independent numeric oracle for every closed-form spectrum
in the package, so it deliberately avoids LAPACK.  Each sweep visits
every (p, q) pair once, in the round-robin order of Brent & Luk (SIAM
J. Sci. Stat. Comput. 6(1), 1985): n - 1 rounds of n/2 disjoint pairs,
an odd n padded with an isolated dummy index.  The rotations of one
round commute, so a round is two whole-array updates (rows, then
columns) rather than n/2 Python-level rotations, and a sweep takes O(n)
interpreter steps.

The solver also reports what an error bound needs.  By Weyl's
inequality every eigenvalue of the final matrix lies within its
off-diagonal Frobenius norm of a diagonal entry (Golub & Van Loan
§8.5), and the rounding of the rotations themselves moves the
eigenvalues by at most ``rounding``.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = ["JacobiConvergenceError", "JacobiResult", "jacobi_eigenvalues"]

ROTATION_THRESHOLD = 1e-14
MAX_SWEEPS = 100
# per round, the computed matrix is an exact orthogonal similarity of A + E
# with ||E||_F <= ROUNDING_FACTOR * eps * ||A||_F: each entry of a two-sided
# update takes two rounded rotations of two terms, and (c, s) is itself
# orthogonal only to a few ulps
ROUNDING_FACTOR = 10


class JacobiConvergenceError(RuntimeError):
    pass


class JacobiResult(NamedTuple):
    """Ascending eigenvalues, the final off-diagonal Frobenius norm and a
    bound on the rounding error accumulated over all rotations; each true
    eigenvalue lies within ``off_norm + rounding`` of its computed value."""

    values: np.ndarray
    off_norm: float
    rounding: float


@functools.lru_cache(maxsize=None)
def _schedule(m: int) -> tuple[np.ndarray, ...]:
    """Row sources of one round for an even size m.

    Position i is paired with position h + i (h = m / 2).  After the round
    the players move one place round the circle (position 0 stays put), so
    every round pairs the same positions and m - 1 rounds pair everything
    once.  Output row j of a round is ``c * X[a[j]] + sign[j] * s * X[b[j]]``
    with (c, s) of pair ``pair[j]``; it lands already in the next round's
    positions.
    """
    h = m // 2
    circle = np.r_[h:m, h - 1:0:-1]
    a = np.arange(m)
    a[np.roll(circle, -1)] = circle
    b = (a + h) % m
    pair = a % h
    sign = np.where(a < h, -1.0, 1.0)
    for arr in (a, b, pair, sign):
        arr.flags.writeable = False
    return a, b, pair, sign


def _off_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.vdot(off, off)))


def _round(x, work, rows, h, a, b, pair, sign) -> bool:
    """One round on ``x``, whose position i is matrix row ``rows[i]``.

    Rotates ``x`` in place into the next round's positions (``work`` holds
    two scratch arrays of its shape) and returns True, or returns False
    without touching ``x`` when no pair is above the rotation threshold.
    """
    apq = x[rows[:h], rows[h:]]
    live = np.abs(apq) > ROTATION_THRESHOLD
    if not live.any():
        return False
    d = x.diagonal()[rows]
    theta = (d[h:] - d[:h]) / (2.0 * np.where(live, apq, 1.0))
    t = np.where(live, np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0)), 0.0)
    c = 1.0 / np.sqrt(t * t + 1.0)
    cj = c[pair]
    sj = (t * c)[pair] * sign
    src_a, src_b = rows[a], rows[b]
    y, w = work
    # mode="clip" never clips (the sources are a permutation) but lets take
    # write straight into ``out`` instead of through a buffer
    np.take(x, src_a, axis=0, out=y, mode="clip")
    y *= cj[:, None]
    np.take(x, src_b, axis=0, out=w, mode="clip")
    w *= sj[:, None]
    y += w
    np.take(y, src_a, axis=1, out=x, mode="clip")
    x *= cj
    np.take(y, src_b, axis=1, out=w, mode="clip")
    w *= sj
    x += w
    return True


def jacobi_eigenvalues(matrix: np.ndarray, *, full: bool = False):
    """All eigenvalues of a symmetric matrix, ascending, via round-robin Jacobi.

    Sweeps stop once the off-diagonal Frobenius norm drops below
    1e-12 * n; pairs with |a_pq| <= 1e-14 get the identity rotation.
    With ``full`` the result is a :class:`JacobiResult` carrying the error
    bound as well.
    """
    x = np.array(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(x, x.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    n = x.shape[0]
    norm = math.sqrt(float(np.vdot(x, x)))
    padded = n % 2 == 1
    if padded:
        x = np.pad(x, ((0, 1), (0, 1)))
    m = x.shape[0]
    h = m // 2
    # rows[i] is the matrix row at round position i; skipped rounds only
    # move the positions
    identity = rows = np.arange(m)
    work = (np.empty_like(x), np.empty_like(x))

    target = 1e-12 * n
    off = _off_norm(x)
    sweeps = 0
    while off > target:
        if sweeps == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"off-diagonal norm {off:.3e} above {target:.3e} after {MAX_SWEEPS} sweeps")
        schedule = _schedule(m)
        for _ in range(m - 1):
            if _round(x, work, rows, h, *schedule):
                rows = identity
            else:
                rows = rows[schedule[0]]
        sweeps += 1
        off = _off_norm(x)

    values = np.sort(x.diagonal())
    if padded:
        # the dummy's row and column stay exactly zero, so dropping any
        # exact zero drops its diagonal entry from the multiset
        values = np.delete(values, np.searchsorted(values, 0.0))
    if not full:
        return values
    rounding = ROUNDING_FACTOR * sweeps * n * sys.float_info.epsilon * norm
    return JacobiResult(values, off, rounding)
