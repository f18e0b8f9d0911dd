"""Critical points of a polynomial on an interval, from its samples.

A polynomial P of degree m attains its maximum on [lo, hi] at an
endpoint or at a real root of P'. The caller samples P at the m + 1
Chebyshev-Lobatto points of [lo, hi] (``chebyshev_points``), and
``critical_points`` takes the roots of P' from those samples: one
matvec with ``derivative_matrix(m)``, the DCT-I interpolation at those
points composed with the Chebyshev derivative recurrence (exact up to
rounding, since the interpolation problem is square), then the
eigenvalues of the colleague matrix (Trefethen, *Approximation Theory
and Approximation Practice*, chs. 3 and 18). The caller evaluates P
itself at the endpoints and at those roots, never the interpolant.
"""

from __future__ import annotations

import functools

import numpy as np

# Rounding can merge a close maximum/minimum pair of P into a complex pair
# of roots of P'. Its real part is kept as a candidate: an extra candidate
# costs one evaluation, a missed one could cost a maximum.
IMAG_TOL = 1e-3

__all__ = ["chebyshev_points", "critical_points", "derivative_matrix"]


def chebyshev_points(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-Lobatto points on [lo, hi], endpoints included exactly."""
    if n < 2:
        return np.array([lo, hi][: max(n, 1)])
    i = np.arange(n)
    points = lo + (hi - lo) * (1.0 - np.cos(np.pi * i / (n - 1))) / 2.0
    # cos(pi) rounds, so the affine map can miss hi by an ulp
    points[0], points[-1] = lo, hi
    return points


@functools.cache
def derivative_matrix(m: int) -> np.ndarray:
    """The read-only m x (m + 1) matrix taking P's values at the m + 1
    Chebyshev-Lobatto points t_j = -cos(pi j / m) of [-1, 1] to the
    Chebyshev coefficients of dP/dt, for P of degree at most m.

    Interpolation (DCT-I): c_k = (2 / m) sum_j w_j P(t_j) T_k(t_j), with
    w_j = 1/2 at both ends, c_0 and c_m halved, and T_k(t_j) from the
    three-term recurrence. Derivative, from k = m down: c'_{k-1} = 2k c_k,
    after c_k has absorbed (k + 2) c_{k+2} / k, then c'_0 halved.
    """
    if m < 1:
        raise ValueError(f"derivative_matrix needs m >= 1, got {m}")
    t = -np.cos(np.pi * np.arange(m + 1) / m)
    coeffs = np.polynomial.chebyshev.chebvander(t, m).T * (2.0 / m)
    coeffs[:, [0, m]] /= 2.0
    coeffs[[0, m]] /= 2.0
    matrix = np.empty((m, m + 1))
    for k in range(m, 0, -1):
        matrix[k - 1] = (2 * k) * coeffs[k]
        if k > 2:
            coeffs[k - 2] += (k * coeffs[k]) / (k - 2)
    matrix[0] /= 2.0
    matrix.flags.writeable = False
    return matrix


def critical_points(samples, lo: float, hi: float) -> np.ndarray:
    """The real roots of P' inside (lo, hi), sorted, where ``samples``
    holds P at ``chebyshev_points(lo, hi, m + 1)`` and P has degree at
    most m. Maxima and minima alike: the LP cutting-plane loop adds those
    where P > 0 to its grid, and ``pfender`` keeps a phi's on [-1, 1] for
    all of its interval checks.
    """
    if hi < lo:
        raise ValueError("empty interval")
    m = len(samples) - 1
    if m < 2 or hi == lo:
        return np.empty(0)
    # chebroots drops exactly-zero leading coefficients itself
    t_roots = np.polynomial.chebyshev.chebroots(derivative_matrix(m) @ samples)
    t_roots = t_roots.real[
        (np.abs(t_roots.imag) <= IMAG_TOL) & (np.abs(t_roots.real) < 1.0)
    ]
    return np.sort(lo + (hi - lo) * (t_roots + 1.0) / 2.0)
