"""Maximum of a polynomial on an interval, from the critical points of P'.

A polynomial of degree m attains its maximum on [lo, hi] at an endpoint
or at a real root of P'. ``polynomial_maximum`` interpolates P at m + 1
Chebyshev-Lobatto points (exact up to rounding, since P has degree m),
differentiates the Chebyshev series and takes the roots of P' as the
eigenvalues of the colleague matrix (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 18). The reported value is P itself
evaluated at the endpoints and at those roots, never the interpolant.
"""

from __future__ import annotations

import numpy as np

# Rounding can merge a close maximum/minimum pair of P into a complex pair
# of roots of P'. Its real part is kept as a candidate: an extra candidate
# costs one evaluation, a missed one could cost a maximum.
IMAG_TOL = 1e-3

__all__ = ["chebyshev_points", "polynomial_maximum"]


def chebyshev_points(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-Lobatto points on [lo, hi], endpoints included exactly."""
    if n < 2:
        return np.array([lo, hi][: max(n, 1)])
    i = np.arange(n)
    points = lo + (hi - lo) * (1.0 - np.cos(np.pi * i / (n - 1))) / 2.0
    # cos(pi) rounds, so the affine map can miss hi by an ulp
    points[0], points[-1] = lo, hi
    return points


def polynomial_maximum(fn, degree: int, lo: float, hi: float):
    """Maximum on [lo, hi] of ``fn``, a vectorized polynomial of degree
    at most ``degree``.

    ``fn`` is called twice with 1-d float arrays. Returns (value,
    location, critical_points): ``critical_points`` holds the real roots
    of P' inside [lo, hi], maxima and minima alike (the LP cutting-plane
    loop adds those where P > 0 to its grid).
    """
    if hi < lo:
        raise ValueError("empty interval")
    roots = np.empty(0)
    if degree >= 2 and hi > lo:
        cheb = np.polynomial.chebyshev
        t = -np.cos(np.pi * np.arange(degree + 1) / degree)
        samples = np.asarray(fn(chebyshev_points(lo, hi, degree + 1)), dtype=float)
        # chebroots drops exactly-zero leading coefficients itself
        t_roots = cheb.chebroots(cheb.chebder(cheb.chebfit(t, samples, degree)))
        t_roots = t_roots.real[
            (np.abs(t_roots.imag) <= IMAG_TOL) & (np.abs(t_roots.real) < 1.0)
        ]
        roots = np.sort(lo + (hi - lo) * (t_roots + 1.0) / 2.0)
    candidates = np.concatenate(([lo, hi], roots))
    values = np.asarray(fn(candidates), dtype=float)
    best = int(np.argmax(values))
    return float(values[best]), float(candidates[best]), roots
