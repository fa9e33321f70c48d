"""Symmetric eigensolver: Householder tridiagonalisation, then implicit QL.

This is the independent numeric oracle for every closed-form spectrum
in the package, so it deliberately avoids LAPACK.  It works in two steps.

* Householder reflections reduce A to a tridiagonal T (Golub & Van Loan,
  *Matrix Computations*, Algorithm 8.3.1), one numpy rank-2 update of
  the trailing block per column.  A column whose entries below the
  subdiagonal are already zero needs no reflection; graphs with several
  components and the complements of complete multipartite graphs have
  such columns.
* T's eigenvalues come from the implicit-shift QL sweeps of EISPACK
  ``imtql1`` (Dubrulle, Martin & Wilkinson, Numer. Math. 12, 1968) in
  plain Python floats.  Each sweep chases one rotation per row of the
  unreduced block, and the iterations for one eigenvalue are capped at
  ``MAX_QL_ITERATIONS``.

Both steps drop an entry once it is at most tol = eps * ||A||_F, with
eps the machine epsilon: the tail of a column (in place of its
reflection) and an off-diagonal e_m of T (deflation).  The relative
test |e_m| <= eps * (|d_m| + |d_{m+1}|) of ``imtql1`` never fires on a
zero eigenvalue of high multiplicity, where rounding keeps d_m and e_m
near eps * ||A|| (for K_{14x4}, 52 of them); ``tql1`` (Bowdler, Martin,
Reinsch & Wilkinson, Numer. Math. 11, 1968) tests against a norm of T
for that reason.

Each true eigenvalue lies within ``off_norm + rounding`` of its computed
value, and both terms are derived from the run:

* ``off_norm`` is the sum of the norms of the dropped entries.  Dropping
  a column tail y, or an e_m, is a symmetric perturbation of 2-norm
  ||y||, or |e_m|, so by Weyl's inequality it moves every eigenvalue by
  at most that much.  Later reflections and rotations mix the dropped
  pieces, so their norms add rather than forming one Frobenius norm.
* ``rounding`` bounds, to first order in eps, the backward error of the
  arithmetic; u = eps / 2 is the unit roundoff.
  - A reflection P = I - beta v v^T of length m acts on the trailing
    block A_k (rows and columns k onwards) as B - v w^T - w v^T, with
    p = beta B v and w = p - (beta p^T v / 2) v.  Take m-term inner
    products accurate to m u relative (Higham, *Accuracy and Stability
    of Numerical Algorithms*, section 3.1) and note that the update has
    norm at most 4 ||A_k||_F.  Term by term, in units of u ||A_k||_F:
    ||x|| fixes beta and v_1 to (m/2 + 5) u, which moves P by twice
    that and the update by four times, 2m + 20; B v adds 4m and p^T v
    4(m + 2); the axpy that forms w adds 16; forming and subtracting the
    update 9; the new subdiagonal entry m/2 + 2.  The sum, 10.5m + 55,
    is below 12m + 60 for every m >= 2, so a reflection adds
    (6m + 30) eps ||A_k||_F.
  - A QL step is a two-sided plane rotation of rows and columns i and
    i + 1.  With (c, s) and the rotated pairs within gamma_6 = 6u of
    exact (Higham, Lemma 19.9), it is exact for a perturbation of
    Frobenius norm at most 2 * sqrt(2) * 6u * ||W_i||_F, where W_i holds
    the two rows.  A sweep of r rotations touches each row of T at most
    twice, so sum ||W_i||_F^2 <= 2 ||T||_F^2, and by Cauchy-Schwarz the
    sweep adds at most 12 sqrt(r) eps ||A||_F (similarities keep
    ||T||_F = ||A||_F to first order).
  Weyl's inequality adds these up over the run.

The module and entry point keep the names of the round-robin Jacobi
solver this replaced: callers and the benchmark's tracer bind
``jacobi.jacobi_eigenvalues`` and read ``JacobiResult`` by field.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = ["JacobiConvergenceError", "JacobiResult", "jacobi_eigenvalues"]

MAX_QL_ITERATIONS = 30


class JacobiConvergenceError(RuntimeError):
    pass


class JacobiResult(NamedTuple):
    """Ascending eigenvalues, the deflation term and the rounding term of
    the error bound; each true eigenvalue lies within
    ``off_norm + rounding`` of its computed value."""

    values: np.ndarray
    off_norm: float
    rounding: float


def _tridiagonalize(a: np.ndarray, tol: float) -> tuple[list[float], list[float], float, float]:
    """Reduces the symmetric ``a`` in place by Householder reflections.

    Returns T's diagonal, its n - 1 off-diagonal entries, the summed norms
    of the column tails dropped and the reflections' rounding bound in
    units of eps (see the module docstring).
    """
    n = a.shape[0]
    e = [0.0] * max(n - 1, 0)
    dropped = 0.0
    units = 0.0
    for k in range(n - 2):
        x = a[k, k + 1:]                # row k, which is column k
        x0 = float(x[0])
        tail = math.sqrt(float(x[1:] @ x[1:]))
        if tail <= tol:
            dropped += tail
            e[k] = x0
            continue
        trailing = a[k:, k:]
        trailing_norm = math.sqrt(float(np.einsum("ij,ij->", trailing, trailing)))
        mu = math.copysign(math.hypot(x0, tail), x0)
        v = x.copy()
        v[0] = v0 = x0 + mu
        beta = 1.0 / (mu * v0)
        block = a[k + 1:, k + 1:]
        w = block @ v
        w *= beta
        w -= (0.5 * beta * float(w @ v)) * v
        # v w^T + w v^T, exactly symmetric
        update = np.multiply.outer(v, w)
        update += update.T
        block -= update
        e[k] = -mu
        units += (6 * (n - k - 1) + 30) * trailing_norm
    if n >= 2:
        e[n - 2] = float(a[n - 2, n - 1])
    return a.diagonal().tolist(), e, dropped, units


def _implicit_ql(d: list[float], e: list[float], tol: float) -> tuple[float, float]:
    """Eigenvalues of the tridiagonal (d, e) into ``d``, unsorted.

    Returns the sum of the |e_m| deflation dropped and the sweeps'
    rounding bound in units of eps * ||A||_F (see the module docstring).
    ``e`` is overwritten.
    """
    n = len(d)
    e.append(0.0)
    hypot, sqrt, copysign = math.hypot, math.sqrt, math.copysign
    dropped = 0.0
    units = 0.0
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while abs(e[m]) > tol:
                m += 1
            dropped += abs(e[m])
            e[m] = 0.0
            if m == l:
                break
            if iterations == MAX_QL_ITERATIONS:
                raise JacobiConvergenceError(
                    f"eigenvalue {l} not isolated after {MAX_QL_ITERATIONS} QL iterations")
            iterations += 1
            # the shift is the eigenvalue of T[l:l+2, l:l+2] nearer d_l
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # T splits exactly at i + 1
                    d[i + 1] -= p
                    units += 12.0 * sqrt(m - i)
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                units += 12.0 * sqrt(m - l)
            e[m] = 0.0
    return dropped, units


def jacobi_eigenvalues(matrix: np.ndarray) -> JacobiResult:
    """All eigenvalues of a symmetric matrix, ascending, with their error
    bound, as a :class:`JacobiResult`.

    The input, a bool adjacency matrix say, is copied once to float64.  The
    bound holds for exactly symmetric matrices only, so any other input is
    refused, however small its asymmetry.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    norm = math.sqrt(float(np.vdot(a, a)))
    eps = sys.float_info.epsilon
    d, e, skipped, reflection_units = _tridiagonalize(a, eps * norm)
    deflated, rotation_units = _implicit_ql(d, e, eps * norm)
    values = np.array(sorted(d), dtype=np.float64)
    rounding = (reflection_units + rotation_units * norm) * eps
    return JacobiResult(values, skipped + deflated, rounding)
