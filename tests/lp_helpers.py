"""LP builders and a brute-force oracle shared by the LP tests."""

from itertools import combinations

import numpy as np

from codebounds import dgs_bound
from codebounds.gegenbauer import basis_values
from codebounds.linprog import FEAS_TOL, LinearProgram
from codebounds.scanning import chebyshev_points


def enumerate_vertices(objective, rows, rhs, upper):
    """Brute-force oracle: best objective over all basic feasible points.

    Constraints are rows @ x <= rhs together with 0 <= x <= upper; every
    n-subset of the combined halfplane set is intersected and checked.
    """
    n = len(objective)
    all_rows = [np.asarray(r, dtype=float) for r in rows]
    all_rhs = [float(b) for b in rhs]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        all_rows.append(e)
        all_rhs.append(float(upper[j]))
        all_rows.append(-e)
        all_rhs.append(0.0)
    best = None
    for subset in combinations(range(len(all_rows)), n):
        A = np.array([all_rows[i] for i in subset])
        b = np.array([all_rhs[i] for i in subset])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        feasible = all(
            float(row @ x) <= bb + 1e-9 for row, bb in zip(all_rows, all_rhs)
        )
        if feasible:
            value = float(np.dot(objective, x))
            if best is None or value < best:
                best = value
    return best


def violation(lp, x):
    """Largest excess of x over the LP's constraints: a row's A_i x - b_i or
    a coordinate's -x_j, and 0 when x satisfies them all."""
    return max(float(np.max(lp.A @ x - lp.b, initial=0.0)), float(np.max(-x)))


def within_row_tolerance(lp, x):
    """Whether x >= 0 satisfies every row up to roundoff of that row's size.

    Row i may exceed b_i by FEAS_TOL (1 + |b_i| + (|A| x)_i): a grid row's
    terms reach 1e8 when P(1) does, so an absolute tolerance would reject
    pure rounding.
    """
    allowance = FEAS_TOL * (1.0 + np.abs(lp.b) + np.abs(lp.A) @ x)
    return bool(np.all(x >= 0.0) and np.all(lp.A @ x - lp.b <= allowance))


def random_covering_lp(rng, n=None, m=None):
    """A feasible LP of the solver's shape, and the oracle's inputs.

    Cost c in [0, 1)^n; the box 0 <= x <= upper is written as "<=" rows
    after A; b = A @ interior + slack, so rows can cut x = 0 off and the
    optimum is often above 0. n and m are drawn (2..4 and 2..10) unless
    given. Returns the LP and (c, A, b, upper).
    """
    n = int(rng.integers(2, 5)) if n is None else n
    m = int(rng.integers(2, 11)) if m is None else m
    A = rng.normal(size=(m, n))
    interior = rng.uniform(0.1, 2.0, n)
    b = A @ interior + rng.uniform(0.05, 1.0, m)
    c = rng.uniform(0.0, 1.0, n)
    upper = rng.uniform(2.5, 6.0, n)
    lp = LinearProgram(c, np.vstack([A, np.eye(n)]), np.concatenate([b, upper]))
    return lp, (c, A, b, upper)


def tall_lp(rng, m, n=4):
    """A feasible tall LP: A x <= b, x >= 0, c > 0."""
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.2, 1.0, n) + rng.uniform(0.01, 0.5, m)
    c = rng.uniform(0.1, 1.0, n)
    return c, A, b


def grid_lp(d, cos_theta, degree):
    """lp_bound's first-round LP: sum_k a_k G_k(r_i) <= -1 on a Chebyshev grid."""
    points = chebyshev_points(-1.0, cos_theta, dgs_bound.GRID_POINTS)
    rows = basis_values(d, degree, points)[1:].T
    return LinearProgram(np.ones(degree), rows, np.full(len(rows), -1.0))
