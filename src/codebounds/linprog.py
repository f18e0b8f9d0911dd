"""Dense simplex solver for desk-scale linear programs.

Minimizes ``objective @ x`` subject to row constraints (<=, >=, =) and
per-variable bounds. The core works on a full tableau with Dantzig
pricing and a switch to Bland's rule after a streak of degenerate pivots.
General LPs take the direct path: two phases, with an artificial variable
on every row. Grid-discretized bound LPs have thousands of constraints
but only a few variables, and a nonnegative cost; for exactly that shape
the solver solves the dual instead (same core, tiny tableau) and recovers
the primal solution from the simplex multipliers. The dual has no phase
1: with a nonnegative cost its all-slack basis is feasible, and so is any
optimal basis of the same LP with fewer rows. It starts from the basis it
is given (all-slack by default), refactorized from the original data, so
a cutting-plane loop can hand each round's optimal basis to the next.
Each LP takes one of the two paths, never both, and the reported solution
is checked independently against the original constraints: a result
outside tolerance comes back as ``numerical_failure``, not as optimal and
not re-solved another way.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_STREAK_LIMIT = 20

LE, GE, EQ = "<=", ">=", "="
# relation code of a row: the sign of its slack column (0 for an equality)
_SENSE = {LE: 1.0, GE: -1.0, EQ: 0.0}
_RELATION = {code: rel for rel, code in _SENSE.items()}

__all__ = ["LinearProgram", "LPSolution", "solve_lp", "LE", "GE", "EQ"]


class _Rows(Sequence):
    """Stacked rows as (row, relation, rhs) tuples.

    Holds the arrays, not the LinearProgram: a reference cycle would keep
    every grid LP's matrix alive until the cyclic garbage collector runs.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, sense: np.ndarray):
        self._A, self._b, self._sense = A, b, sense

    def __len__(self) -> int:
        return len(self._b)

    def __getitem__(self, i: int):
        return self._A[i], _RELATION[float(self._sense[i])], float(self._b[i])

    def __repr__(self) -> str:
        return f"<{len(self)} rows>"


@dataclass
class LinearProgram:
    """Dense LP: minimize ``objective @ x`` under rows and variable bounds.

    The rows come either as ``constraints``, a list of (row, relation,
    rhs) with relation one of "<=", ">=", "=", or already stacked as ``A``
    (m x n), ``b`` (m,) and ``sense`` (m,): +1 for "<=", -1 for ">=", 0
    for "=". Either way they are held as those three arrays, and
    ``constraints`` becomes a read-only (row, relation, rhs) view of them,
    one entry per row. Bounds default to x >= 0 with no upper limit.
    """

    objective: np.ndarray
    constraints: Sequence = field(default_factory=list)
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    A: np.ndarray | None = field(default=None, repr=False)
    b: np.ndarray | None = field(default=None, repr=False)
    sense: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise ValueError("objective must be a non-empty vector")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective entries must be finite")
        n = self.n_vars
        if self.A is None and self.b is None and self.sense is None:
            self._stack_rows()
        elif self.A is None or self.b is None or self.sense is None:
            raise ValueError("A, b and sense must be given together")
        elif len(self.constraints):
            raise ValueError("give the rows as constraints or as A, b, sense, not both")
        else:
            self.A = np.asarray(self.A, dtype=float)
            if self.A.ndim != 2 or self.A.shape[1] != n:
                raise ValueError(
                    f"constraint row has length {self.A.shape[1:]}, expected ({n},)"
                )
            m = len(self.A)
            self.b = np.asarray(self.b, dtype=float)
            self.sense = np.asarray(self.sense, dtype=float)
            if self.b.shape != (m,) or self.sense.shape != (m,):
                raise ValueError("b and sense must have one entry per row of A")
            unknown = ~np.isin(self.sense, list(_RELATION))
            if unknown.any():
                raise ValueError(f"unknown relation {self.sense[unknown][0]!r}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("constraint entries must be finite")
        self.constraints = _Rows(self.A, self.b, self.sense)
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

    def _stack_rows(self) -> None:
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

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "numerical_failure"
    x: np.ndarray | None = None
    objective_value: float = float("nan")
    max_constraint_violation: float = float("nan")
    iterations: int = 0  # pivots of this solve only
    # Dual path only: the n_vars primal columns that are nonbasic at the
    # optimum, numbered x_0..x_{n-1} and then the slack of each row. The
    # numbering keeps its meaning when rows are appended, so this can
    # warm-start ``solve_lp`` on a grown LP.
    basis: np.ndarray | None = None


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
    """Tableau simplex for min cost @ z, z >= 0, on T = B^-1 [columns | rhs].

    ``basis[i]`` is the column that is basic in row i of ``T``.
    """

    def __init__(self, T: np.ndarray, basis, maxiter: int):
        self.T = T
        self.m = T.shape[0]
        self.basis = list(basis)
        self.maxiter = maxiter
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

    def _evict_artificials(self, art0: int) -> None:
        # pivot zero-level artificials (columns >= art0) out of the basis
        for row in range(self.m):
            if self.basis[row] < art0:
                continue
            entries = np.abs(self.T[row, :art0])
            col = int(np.argmax(entries))
            if entries[col] > 1e-7:
                self._pivot(row, col)
                self.iterations += 1
            else:
                # redundant row: neutralize so it can never pivot again
                self.T[row, :art0] = 0.0
                self.T[row, -1] = 0.0


def _solve_two_phase(c, A, sense, b, maxiter):
    """min c @ z, A z (sense) b, z >= 0, from an artificial on every row."""
    m, n = A.shape
    if m == 0:
        # no rows: minimum of c @ z over z >= 0
        if np.any(c < -OPT_TOL):
            return "unbounded", None, 0
        return "optimal", np.zeros(len(c)), 0
    A = A.copy()
    b = np.asarray(b, dtype=float).copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] = -b[flip]
    sense = np.where(flip, -sense, sense)
    slack_rows = np.flatnonzero(sense)
    n_slack = len(slack_rows)
    art0 = n + n_slack
    ncols = art0 + m
    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, -1] = b
    T[slack_rows, n + np.arange(n_slack)] = sense[slack_rows]
    T[np.arange(m), art0 + np.arange(m)] = 1.0
    core = _Core(T, range(art0, ncols), maxiter)

    cost1 = np.zeros(ncols)
    cost1[art0:] = 1.0
    status = core._run(cost1, np.ones(ncols, dtype=bool))
    if status == "stalled":
        return "numerical_failure", None, core.iterations
    rhs_scale = 1.0 + float(np.max(np.abs(T[:, -1])))
    if float(cost1[core.basis] @ T[:, -1]) > 1e-8 * rhs_scale:
        return "infeasible", None, core.iterations
    core._evict_artificials(art0)
    cost2 = np.zeros(ncols)
    cost2[:n] = c
    allowed = np.ones(ncols, dtype=bool)
    allowed[art0:] = False
    status = core._run(cost2, allowed)
    if status == "stalled":
        return "numerical_failure", None, core.iterations
    if status == "unbounded":
        return "unbounded", None, core.iterations
    z = np.zeros(ncols)
    z[np.array(core.basis)] = T[:, -1]
    return "optimal", z[:n], core.iterations


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
    status, z, iters = _solve_two_phase(c, A, sense, b_vec, maxiter)
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


def _tableau_columns(basis, m: int, n: int) -> np.ndarray:
    """Map an ``LPSolution.basis`` onto the dual tableau's columns."""
    basis = np.asarray(basis)
    if (
        basis.shape != (n,)
        or not np.issubdtype(basis.dtype, np.integer)
        or basis.min() < 0
        or basis.max() >= n + m
        or len(np.unique(basis)) != n
    ):
        raise ValueError(
            f"basis must name {n} distinct columns out of the {n + m} "
            "variables and row slacks"
        )
    return np.where(basis < n, basis + m, basis - n)


def _solve_dual(lp: LinearProgram, maxiter: int, basis=None):
    """Solve min c@x, A x <= b, x >= 0 through its dual (few rows, many columns).

    Dual: min b@y s.t. -A^T y + s = c, y, s >= 0, one row per variable.
    Its tableau has the columns y_0..y_{m-1}, s_0..s_{n-1}; the optimal
    primal x is the negated vector of simplex multipliers. With c >= 0
    the all-slack basis (y = 0) is feasible, so an unbounded dual means
    an infeasible primal. The solve starts from ``basis`` (default: all
    slack) with the tableau refactorized from the data as
    B^-1 [-A^T | I | c], and ends as ``numerical_failure`` when that
    basis is singular, not feasible, or the pivots stall.
    """
    A = lp.A * lp.sense[:, None]  # every row as "<=" (no equalities here)
    b = lp.b * lp.sense
    m, n = A.shape
    cols = np.arange(m, m + n) if basis is None else _tableau_columns(basis, m, n)
    data = np.hstack([-A.T, np.eye(n), lp.objective[:, None]])
    try:
        T = np.linalg.solve(data[:, cols], data)
    except np.linalg.LinAlgError:
        return "numerical_failure", None, 0, None
    rhs = T[:, -1]
    if not np.all(np.isfinite(T)) or rhs.min() < -FEAS_TOL * (1.0 + np.abs(rhs).max()):
        return "numerical_failure", None, 0, None
    np.clip(rhs, 0.0, None, out=rhs)
    core = _Core(T, cols, maxiter)
    cost = np.concatenate([b, np.zeros(n)])
    status = core._run(cost, np.ones(m + n, dtype=bool))
    if status == "unbounded":
        return "infeasible", None, core.iterations, None
    if status != "optimal":
        return "numerical_failure", None, core.iterations, None
    basic = np.array(core.basis)
    # simplex multipliers through the slack columns, which hold B^-1
    x = -(cost[basic] @ T[:, m:-1])
    np.clip(x, 0.0, None, out=x)
    y = np.zeros(m)
    dual_rows = basic < m
    y[basic[dual_rows]] = T[dual_rows, -1]
    x = _refine_primal(lp, A, b, x, y)
    return "optimal", x, core.iterations, np.where(dual_rows, basic + n, basic - m)


def solve_lp(lp: LinearProgram, basis=None) -> LPSolution:
    """Solve the LP; deterministic for a fixed input and ``basis``.

    Tall LPs with x >= 0, no equalities and a nonnegative cost go through
    the dual; every other LP through the direct tableau. ``basis``, an
    ``LPSolution.basis`` of the same LP or of one with the same variables
    and fewer (leading) rows, warm-starts the dual path; the direct path
    ignores it. Optimal solutions are re-checked against the original
    constraints: a result that violates them beyond tolerance is
    downgraded to ``numerical_failure`` rather than reported as optimal.
    """
    maxiter = 50 * (len(lp.b) + lp.n_vars) + 2000
    rhs_scale = 1.0 + float(np.max(np.abs(lp.b), initial=0.0))
    if _dual_fast_path_applies(lp):
        status, x, iters, basis = _solve_dual(lp, maxiter, basis)
    else:
        status, x, iters = _solve_direct(lp, maxiter)
        basis = None
    return _finish(lp, status, x, iters, rhs_scale, basis)


def _finish(lp, status, x, iterations, rhs_scale, basis) -> LPSolution:
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
        basis=basis,
    )
