"""Grid-plus-refinement maximization of 1-d functions on an interval.

Used by the certificate verifiers to bound sign conditions: a Chebyshev
sample resolves every local maximum of a moderate-degree polynomial (or
piecewise-linear table), and a batched bracket refinement around all grid
maxima at once pins the value down to search-noise level.

Each refinement step evaluates ``fn`` once, on REFINE_POINTS evenly spaced
points across the bracket of every grid maximum, and narrows each bracket
to the two neighbours of its best point: a 32x shrink per step. The first
bracket spans two grid spacings, so on the 2048- and 20000-point grids the
verifiers use the final bracket is below 1e-10 wide. The reported maximum
is the largest value ever evaluated, so it is never below the grid
maximum.
"""

from __future__ import annotations

import numpy as np

REFINE_STEPS = 5
REFINE_POINTS = 65

__all__ = ["REFINE_STEPS", "chebyshev_points", "scan_maximum"]


def chebyshev_points(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-Lobatto points on [lo, hi], endpoints included exactly."""
    if n < 2:
        return np.array([lo, hi][: max(n, 1)])
    i = np.arange(n)
    points = lo + (hi - lo) * (1.0 - np.cos(np.pi * i / (n - 1))) / 2.0
    # cos(pi) rounds, so the affine map can miss hi by an ulp
    points[0], points[-1] = lo, hi
    return points


def scan_maximum(fn, lo: float, hi: float, grid_size: int):
    """Maximum of a vectorized function on [lo, hi].

    ``fn`` is called with 1-d float arrays, at most 1 + REFINE_STEPS times.
    Returns (value, location, maxima): ``maxima`` is an array of the
    refined locations of every interior local maximum of the grid sample
    (the LP cutting-plane loop adds them to its grid).
    """
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return float(fn(np.array([lo]))[0]), lo, np.array([lo])
    grid = chebyshev_points(lo, hi, max(grid_size, 8))
    values = np.asarray(fn(grid), dtype=float)
    interior = np.where(
        (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
    )[0] + 1
    left, right = grid[interior - 1], grid[interior + 1]
    locs, vals = grid[interior], values[interior]
    rows = np.arange(len(interior))
    fractions = np.linspace(0.0, 1.0, REFINE_POINTS)
    for _ in range(REFINE_STEPS if len(interior) else 0):
        x = left[:, None] + (right - left)[:, None] * fractions
        fx = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        j = np.argmax(fx, axis=1)
        better = fx[rows, j] > vals
        vals = np.where(better, fx[rows, j], vals)
        locs = np.where(better, x[rows, j], locs)
        left = x[rows, np.maximum(j - 1, 0)]
        right = x[rows, np.minimum(j + 1, REFINE_POINTS - 1)]
    best = int(np.argmax(values))
    best_val, best_loc = float(values[best]), float(grid[best])
    if len(vals) and vals.max() > best_val:
        best = int(np.argmax(vals))
        best_val, best_loc = float(vals[best]), float(locs[best])
    return best_val, best_loc, locs
