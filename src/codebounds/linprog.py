"""Dense two-phase simplex solver for desk-scale linear programs.

Minimizes ``objective @ x`` subject to row constraints (<=, >=, =) and
per-variable bounds. The core works on a full tableau with artificial
variables on every row, Dantzig pricing, and a switch to Bland's rule
after a streak of degenerate pivots. Grid-discretized bound LPs have
thousands of constraints but only a few variables, and a nonnegative
cost; for exactly that shape the solver solves the dual instead (same
core, tiny tableau) and recovers the primal solution from the simplex
multipliers. Each LP takes one of the two paths, never both, and the
reported solution is checked independently against the original
constraints: a result outside tolerance comes back as
``numerical_failure``, not as optimal and not re-solved another way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_STREAK_LIMIT = 20

LE, GE, EQ = "<=", ">=", "="
# relation code of a row: the sign of its slack column (0 for an equality)
_SENSE = {LE: 1.0, GE: -1.0, EQ: 0.0}

__all__ = ["LinearProgram", "LPSolution", "solve_lp", "LE", "GE", "EQ"]


@dataclass
class LinearProgram:
    """Dense LP: minimize ``objective @ x`` under rows and variable bounds.

    ``constraints`` is a list of (row, relation, rhs) with relation one of
    "<=", ">=", "=". Bounds default to x >= 0 with no upper limit. The rows
    are stacked once, at construction, into ``A`` (m x n), ``b`` (m,) and
    ``sense`` (m,): +1 for "<=", -1 for ">=", 0 for "=".
    """

    objective: np.ndarray
    constraints: list = field(default_factory=list)
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    A: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    sense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise ValueError("objective must be a non-empty vector")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective entries must be finite")
        n = self.n_vars
        rows, relations, rhs = (
            zip(*self.constraints) if self.constraints else ((), (), ())
        )
        for row in rows:
            if np.shape(row) != (n,):
                raise ValueError(
                    f"constraint row has length {np.shape(row)}, expected ({n},)"
                )
        for rel in relations:
            if rel not in (LE, GE, EQ):
                raise ValueError(f"unknown relation {rel!r}")
        self.A = np.array(rows, dtype=float).reshape(len(rows), n)
        self.b = np.array(rhs, dtype=float).reshape(len(rows))
        self.sense = np.array([_SENSE[rel] for rel in relations])
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("constraint entries must be finite")
        self.lower = (
            np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        )
        self.upper = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float)
        )
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "numerical_failure"
    x: np.ndarray | None = None
    objective_value: float = float("nan")
    max_constraint_violation: float = float("nan")
    iterations: int = 0


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    residual = lp.A @ x - lp.b
    rows = np.where(lp.sense == 0.0, np.abs(residual), lp.sense * residual)
    worst = float(rows.max()) if rows.size else 0.0
    finite_lo = np.isfinite(lp.lower)
    finite_hi = np.isfinite(lp.upper)
    if finite_lo.any():
        worst = max(worst, float(np.max(lp.lower[finite_lo] - x[finite_lo])))
    if finite_hi.any():
        worst = max(worst, float(np.max(x[finite_hi] - lp.upper[finite_hi])))
    return max(worst, 0.0)


class _Core:
    """Tableau simplex for min c @ z, A z (sense) b, z >= 0."""

    def __init__(self, c, A, sense, b, maxiter):
        m, n = A.shape
        self.m, self.n = m, n
        self.maxiter = maxiter
        A = A.copy()
        b = np.asarray(b, dtype=float).copy()
        flip = b < 0
        A[flip] *= -1.0
        b[flip] = -b[flip]
        self.row_sign = np.where(flip, -1.0, 1.0)
        sense = sense * self.row_sign
        slack_rows = np.flatnonzero(sense)
        n_slack = len(slack_rows)
        ncols = n + n_slack + m
        T = np.zeros((m, ncols + 1))
        T[:, :n] = A
        T[:, -1] = b
        T[slack_rows, n + np.arange(n_slack)] = sense[slack_rows]
        self.art0 = n + n_slack
        T[np.arange(m), self.art0 + np.arange(m)] = 1.0
        self.T = T
        self.ncols = ncols
        self.basis = list(range(self.art0, self.art0 + m))
        self.iterations = 0

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        self.basis[row] = col

    def _run(self, cost: np.ndarray, allowed: np.ndarray) -> str:
        T = self.T
        degenerate_streak = 0
        basis_arr = np.array(self.basis)
        while self.iterations < self.maxiter:
            cb = cost[basis_arr]
            reduced = cost - cb @ T[:, :-1]
            reduced[~allowed] = np.inf
            reduced[basis_arr] = np.inf
            if degenerate_streak >= DEGENERATE_STREAK_LIMIT:
                candidates = np.where(reduced < -OPT_TOL)[0]
                if len(candidates) == 0:
                    return "optimal"
                enter = int(candidates[0])  # Bland: lowest index
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -OPT_TOL:
                    return "optimal"
            col = T[:, enter]
            positive = col > PIVOT_TOL
            if not positive.any():
                return "unbounded"
            ratios = np.full(self.m, np.inf)
            ratios[positive] = T[positive, -1] / col[positive]
            best = float(ratios.min())
            ties = np.where(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
            leave = int(ties[np.argmin(basis_arr[ties])])  # Bland tie-break
            degenerate_streak = degenerate_streak + 1 if best <= 1e-10 else 0
            self._pivot(leave, enter)
            basis_arr[leave] = enter
            self.iterations += 1
        return "stalled"

    def solve(self, c: np.ndarray):
        cost1 = np.zeros(self.ncols)
        cost1[self.art0 :] = 1.0
        allowed = np.ones(self.ncols, dtype=bool)
        status = self._run(cost1, allowed)
        if status == "stalled":
            return "numerical_failure", None, None
        rhs_scale = 1.0 + float(np.max(np.abs(self.T[:, -1]))) if self.m else 1.0
        phase1 = float(cost1[self.basis] @ self.T[:, -1])
        if phase1 > 1e-8 * rhs_scale:
            return "infeasible", None, None
        self._evict_artificials()
        cost2 = np.zeros(self.ncols)
        cost2[: self.n] = c
        allowed = np.ones(self.ncols, dtype=bool)
        allowed[self.art0 :] = False
        status = self._run(cost2, allowed)
        if status == "stalled":
            return "numerical_failure", None, None
        if status == "unbounded":
            return "unbounded", None, None
        z = np.zeros(self.ncols)
        z[np.array(self.basis)] = self.T[:, -1]
        # simplex multipliers through the artificial tracker columns (B^-1)
        pi = cost2[self.basis] @ self.T[:, self.art0 : self.art0 + self.m]
        pi = pi * self.row_sign
        return "optimal", z[: self.n], pi

    def _evict_artificials(self) -> None:
        # pivot zero-level artificials out of the basis where possible
        for row in range(self.m):
            if self.basis[row] < self.art0:
                continue
            entries = np.abs(self.T[row, : self.art0])
            col = int(np.argmax(entries))
            if entries[col] > 1e-7:
                self._pivot(row, col)
                self.iterations += 1
            else:
                # redundant row: neutralize so it can never pivot again
                self.T[row, : self.art0] = 0.0
                self.T[row, -1] = 0.0


def _solve_via_core(c, A, sense, b, maxiter):
    if A.shape[0] == 0:
        # no rows: minimum of c @ z over z >= 0
        if np.any(c < -OPT_TOL):
            return "unbounded", None, None, 0
        return "optimal", np.zeros(len(c)), np.zeros(0), 0
    core = _Core(c, A, sense, b, maxiter)
    status, z, pi = core.solve(c)
    return status, z, pi, core.iterations


def _solve_direct(lp: LinearProgram, maxiter: int):
    """General path: shift/mirror/split variables to z >= 0 form."""
    n = lp.n_vars
    lo, hi = lp.lower, lp.upper
    # column transforms: x_j = offset_j + sign_j * z_col (+ optional split col)
    offsets = np.zeros(n)
    signs = np.ones(n)
    split = np.zeros(n, dtype=bool)
    for j in range(n):
        if np.isfinite(lo[j]):
            offsets[j] = lo[j]
        elif np.isfinite(hi[j]):
            offsets[j], signs[j] = hi[j], -1.0
        else:
            split[j] = True
    split_cols = np.flatnonzero(split)

    def transform_rows(rows):
        return np.hstack([rows * signs, -rows[:, split_cols]])

    boxed = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi))
    A = transform_rows(np.vstack([lp.A, np.eye(n)[boxed]]))
    sense = np.concatenate([lp.sense, np.ones(len(boxed))])
    b_vec = np.concatenate([lp.b - lp.A @ offsets, hi[boxed] - lo[boxed]])
    c = transform_rows(lp.objective[None, :])[0]
    status, z, _, iters = _solve_via_core(c, A, sense, b_vec, maxiter)
    if status != "optimal":
        return status, None, iters
    x = offsets + signs * z[:n]
    x[split_cols] -= z[n:]
    return status, x, iters


def _dual_fast_path_applies(lp: LinearProgram) -> bool:
    if not (np.all(lp.lower == 0.0) and np.all(np.isinf(lp.upper))):
        return False
    if np.any(lp.sense == 0.0) or np.any(lp.objective < 0.0):
        return False
    return len(lp.b) >= max(64, 4 * lp.n_vars)


def _refine_primal(lp, A, b, x, y):
    """Active-set least-squares polish of a multiplier-recovered solution.

    Late cutting-plane rounds can cluster nearly identical tight rows;
    the accumulated tableau then amplifies roundoff in the multipliers.
    Complementary slackness identifies the tight rows (positive duals)
    and the support of x, and re-solving that small system against the
    original data typically cuts the residual by orders of magnitude.
    """
    if x.size == 0 or y.size == 0:
        return x
    tight = np.where(y > 1e-11 * max(1.0, float(np.max(y))))[0]
    support = np.where(x > 1e-11 * max(1.0, float(np.max(x))))[0]
    if len(tight) == 0 or len(support) == 0:
        return x
    try:
        solution, *_ = np.linalg.lstsq(
            A[np.ix_(tight, support)], b[tight], rcond=None
        )
    except np.linalg.LinAlgError:
        return x
    candidate = np.zeros_like(x)
    candidate[support] = solution
    np.clip(candidate, 0.0, None, out=candidate)
    objective_gap = abs(float(lp.objective @ (candidate - x)))
    if objective_gap > 1e-7 * (1.0 + abs(float(lp.objective @ x))):
        return x
    if _violation(lp, candidate) < _violation(lp, x):
        return candidate
    return x


def _solve_dual(lp: LinearProgram, maxiter: int):
    """Solve min c@x, A x <= b, x >= 0 through its dual (few rows, many columns).

    Dual pair: max -b@y s.t. -A^T y <= c, y >= 0; the optimal primal x is
    the negated vector of simplex multipliers of the dual solve. With
    c >= 0, y = 0 is dual-feasible, so an unbounded dual means an
    infeasible primal, and an infeasible dual can only be roundoff.
    """
    A = lp.A * lp.sense[:, None]  # every row as "<=" (no equalities here)
    b = lp.b * lp.sense
    status, z, pi, iters = _solve_via_core(
        b, -A.T, np.ones(lp.n_vars), lp.objective, maxiter
    )
    if status == "unbounded":
        return "infeasible", None, iters
    if status == "infeasible":
        return "numerical_failure", None, iters
    if status != "optimal":
        return status, None, iters
    x = -pi
    np.clip(x, 0.0, None, out=x)
    x = _refine_primal(lp, A, b, x, z[: len(b)])
    return "optimal", x, iters


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve the LP; deterministic for a fixed input.

    Tall LPs with x >= 0, no equalities and a nonnegative cost go through
    the dual; every other LP through the direct tableau. Optimal solutions
    are re-checked against the original constraints: a result that
    violates them beyond tolerance is downgraded to ``numerical_failure``
    rather than reported as optimal.
    """
    maxiter = 50 * (len(lp.b) + lp.n_vars) + 2000
    rhs_scale = 1.0 + float(np.max(np.abs(lp.b), initial=0.0))
    solve = _solve_dual if _dual_fast_path_applies(lp) else _solve_direct
    status, x, iters = solve(lp, maxiter)
    return _finish(lp, status, x, iters, rhs_scale)


def _finish(lp, status, x, iterations, rhs_scale) -> LPSolution:
    if status != "optimal":
        return LPSolution(status=status, iterations=iterations)
    violation = _violation(lp, x)
    if violation > FEAS_TOL * rhs_scale:
        return LPSolution(status="numerical_failure", iterations=iterations)
    return LPSolution(
        status="optimal",
        x=x,
        objective_value=float(lp.objective @ x),
        max_constraint_violation=violation,
        iterations=iterations,
    )
