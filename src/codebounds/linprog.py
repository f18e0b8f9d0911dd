"""Dual simplex solver for the Delsarte bound's grid LP.

Solves one shape of LP: minimize ``objective @ x`` subject to
``A x <= b`` and ``x >= 0``, with a nonnegative cost. That is the
grid-discretized bound LP: thousands of rows, at most 40 variables. The
solver works on the dual, min b@y s.t. -A^T y + s = c, y, s >= 0, whose
tableau has one row per variable, with Dantzig pricing and a switch to
Bland's rule after a streak of degenerate pivots. The dual has no phase
1: with a nonnegative cost its all-slack basis is feasible, and so is
any optimal basis of the same LP with fewer rows. A solve starts from
the basis it is given (all-slack by default), refactorized from the
original data, so a cutting-plane loop can hand each round's optimal
basis to the next.

An optimum has at most n tight rows, so every LP is solved by row
generation: the dual simplex runs on a working set of rows (about 8n
evenly spaced ones plus those the starting basis names, or all rows of a
shorter LP), every row the working optimum violates is added, and the
working LP is re-solved from its own optimal basis until no row outside
it is violated. The rows left out have dual 0, so the last working
optimum is the full LP's optimum, and an infeasible working LP proves
the full LP infeasible. The primal solution is recovered from the
simplex multipliers and checked against every original row, each within
a tolerance relative to its own scale: a result outside it comes back as
``numerical_failure``, not as optimal and not re-solved another way.
Because cost and x are both nonnegative the LP is never unbounded.

Cost model: ``solve_lp`` checks the LP and the caller's basis once. Each
row-generation pass then costs one refactorization of its tableau from
the data, with nothing checked again, and each pivot one price matvec and
one rank-1 update in place, with no array allocated. The residual A x - b
of the last pass's x, computed to find violated rows, is reused by the
final tolerance check and ``max_constraint_violation`` when
``_refine_primal`` keeps that x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_STREAK_LIMIT = 20
# row generation starts from this many evenly spaced rows per variable
ROWS_PER_VARIABLE = 8

__all__ = ["LinearProgram", "LPSolution", "solve_lp"]


@dataclass
class LinearProgram:
    """Minimize ``objective @ x`` subject to ``A @ x <= b`` and ``x >= 0``.

    ``objective`` (n,) must be nonnegative, ``A`` is m x n and ``b`` has
    one entry per row; every entry must be finite.
    """

    objective: np.ndarray
    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise ValueError("objective must be a non-empty vector")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective entries must be finite")
        if np.any(self.objective < 0.0):
            raise ValueError("objective entries must be nonnegative")
        n = len(self.objective)
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise ValueError(
                f"constraint row has length {self.A.shape[1:]}, expected ({n},)"
            )
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (len(self.A),):
            raise ValueError("b must have one entry per row of A")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("constraint entries must be finite")

    @property
    def constraints(self) -> np.ndarray:
        """Read-only view of the constraint rows of ``A``, one entry per row."""
        rows = self.A.view()
        rows.flags.writeable = False
        return rows


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "numerical_failure"
    x: np.ndarray | None = None
    objective_value: float = float("nan")
    max_constraint_violation: float = float("nan")
    iterations: int = 0  # pivots of this solve, over all row-generation passes
    restarts: int = 0  # passes re-solved from all-slack after a rejected warm start
    # The n primal columns that are nonbasic at the optimum, numbered
    # x_0..x_{n-1} and then the slack of each row. The numbering keeps
    # its meaning when rows are appended, so this can warm-start
    # ``solve_lp`` on a grown LP.
    basis: np.ndarray | None = None


def _residual(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """A x - b, one entry per row; positive where x violates the row."""
    return lp.A @ x - lp.b


def _violation(lp: LinearProgram, x: np.ndarray, residual=None) -> float:
    if residual is None:
        residual = _residual(lp, x)
    return max(float(np.max(residual, initial=0.0)), float(np.max(-x)))


def _within_tolerance(lp: LinearProgram, x: np.ndarray, residual=None) -> bool:
    """Whether x >= 0 satisfies every row up to roundoff of that row's size.

    Row i may exceed b_i by FEAS_TOL (1 + |b_i| + (|A| x)_i): a grid row's
    terms reach 1e8 when P(1) does, so an absolute tolerance would reject
    pure rounding.
    """
    if residual is None:
        residual = _residual(lp, x)
    allowance = FEAS_TOL * (1.0 + np.abs(lp.b) + np.abs(lp.A) @ x)
    return bool(np.all(residual <= allowance))


def _simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, maxiter: int):
    """Tableau simplex for min cost @ z, z >= 0, on T = B^-1 [columns | rhs].

    ``basis[i]`` is the column that is basic in row i of ``T``; both are
    updated in place. Returns the status ("optimal", "unbounded" or
    "stalled") and the number of pivots.

    Cost per pivot: one price matvec and one rank-1 update, each written
    into a buffer allocated once per call, the update then subtracted from
    ``T`` in place; the ratio test runs over the entering column and the
    right-hand side as Python floats. No array is allocated per pivot.
    """
    columns = T[:, :-1]
    reduced = np.empty(columns.shape[1])
    improving = np.empty(columns.shape[1], dtype=bool)
    basic_cost = cost[basis]
    factors = np.empty((len(T), 1))
    update = np.empty_like(T)
    degenerate_streak = 0
    for iteration in range(maxiter):
        np.matmul(basic_cost, columns, out=reduced)
        np.subtract(cost, reduced, out=reduced)
        reduced[basis] = np.inf
        if degenerate_streak >= DEGENERATE_STREAK_LIMIT:
            np.less(reduced, -OPT_TOL, out=improving)
            enter = int(improving.argmax())  # Bland: lowest index
            if not improving[enter]:
                return "optimal", iteration
        else:
            enter = int(reduced.argmin())
            if reduced[enter] >= -OPT_TOL:
                return "optimal", iteration
        column, rhs = T[:, enter].tolist(), T[:, -1].tolist()
        ratios = [
            (rhs[row] / entry, row)
            for row, entry in enumerate(column)
            if entry > PIVOT_TOL
        ]
        if not ratios:
            return "unbounded", iteration
        best = min(ratios)[0]
        limit = best + 1e-12 * (1.0 + abs(best))
        # Bland tie-break: the tied row whose basic column has the lowest index
        ties = (row for ratio, row in ratios if ratio <= limit)
        leave = min(ties, key=basis.__getitem__)
        degenerate_streak = degenerate_streak + 1 if best <= 1e-10 else 0
        pivot_row = T[leave]
        pivot_row /= pivot_row[enter]
        factors[:, 0] = T[:, enter]
        factors[leave] = 0.0
        np.multiply(factors, pivot_row, out=update)
        T -= update
        basis[leave] = enter
        basic_cost[leave] = cost[enter]
    return "stalled", maxiter


def _refine_primal(lp, x, y):
    """Active-set least-squares polish of a multiplier-recovered solution.

    Late cutting-plane rounds can cluster nearly identical tight rows;
    the accumulated tableau then amplifies roundoff in the multipliers.
    Complementary slackness identifies the tight rows (positive duals)
    and the support of x, and re-solving that small system against the
    original data typically cuts the residual by orders of magnitude.
    """
    if y.size == 0:
        return x
    tight = np.where(y > 1e-11 * max(1.0, float(np.max(y))))[0]
    support = np.where(x > 1e-11 * max(1.0, float(np.max(x))))[0]
    if len(tight) == 0 or len(support) == 0:
        return x
    try:
        solution, *_ = np.linalg.lstsq(
            lp.A[np.ix_(tight, support)], lp.b[tight], rcond=None
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


def _checked_basis(basis, m: int, n: int) -> np.ndarray:
    """``basis`` as an array, checked to be an ``LPSolution.basis`` of an
    LP with m rows and n variables."""
    basis = np.asarray(basis)
    if (
        basis.shape != (n,)
        or not np.issubdtype(basis.dtype, np.integer)
        or basis.min() < 0
        or basis.max() >= n + m
        or np.any(np.diff(np.sort(basis)) == 0)
    ):
        raise ValueError(
            f"basis must name {n} distinct columns out of the {n + m} "
            "variables and row slacks"
        )
    return basis


def _solve_dual(lp: LinearProgram, basis=None):
    """Solve the LP through its dual (few rows, many columns).

    The dual tableau has the columns y_0..y_{m-1}, s_0..s_{n-1}; the
    optimal primal x is the negated vector of simplex multipliers. With
    c >= 0 the all-slack basis (y = 0) is feasible, so an unbounded dual
    means an infeasible primal. The solve starts from ``basis``, an
    ``LPSolution.basis`` that the caller has checked (default: all
    slack), with the tableau refactorized from the data as
    B^-1 [-A^T | I | c], and ends as ``numerical_failure`` when that
    basis is singular, not feasible, or the pivots stall. Returns the
    status, x, the dual solution y, the pivot count and the optimal basis.
    """
    m, n = lp.A.shape
    basic = (
        np.arange(m, m + n) if basis is None else np.where(basis < n, basis + m, basis - n)
    )
    data = np.hstack([-lp.A.T, np.eye(n), lp.objective[:, None]])
    try:
        # solved even for the all-slack B = I, whose solve turns some -0.0
        # of the data into +0.0: a sign that can reach a certificate's bytes
        T = np.linalg.solve(data[:, basic], data)
    except np.linalg.LinAlgError:
        return "numerical_failure", None, None, 0, None
    rhs = T[:, -1]
    if not np.all(np.isfinite(T)) or rhs.min() < -FEAS_TOL * (1.0 + np.abs(rhs).max()):
        return "numerical_failure", None, None, 0, None
    np.clip(rhs, 0.0, None, out=rhs)
    cost = np.concatenate([lp.b, np.zeros(n)])
    status, iterations = _simplex(T, basic, cost, 50 * (m + n) + 2000)
    if status == "unbounded":
        return "infeasible", None, None, iterations, None
    if status != "optimal":
        return "numerical_failure", None, None, iterations, None
    # simplex multipliers through the slack columns, which hold B^-1
    x = -(cost[basic] @ T[:, m:-1])
    np.clip(x, 0.0, None, out=x)
    y = np.zeros(m)
    dual_rows = basic < m
    y[basic[dual_rows]] = T[dual_rows, -1]
    return "optimal", x, y, iterations, np.where(dual_rows, basic + n, basic - m)


def solve_lp(lp: LinearProgram, basis=None) -> LPSolution:
    """Solve the LP; deterministic for a fixed input and ``basis``.

    ``basis``, an ``LPSolution.basis`` of the same LP or of one with the
    same variables and fewer (leading) rows, warm-starts the solve. Every
    LP is solved by row generation (see the module docstring): the
    working set starts as ROWS_PER_VARIABLE * n evenly spaced rows (all
    of them in a shorter LP) plus the rows named in ``basis``. Each pass
    runs ``_solve_dual`` on it, appends every row outside it that the
    working optimum violates, and warm-starts from the pass's optimal
    basis, whose numbering appended rows leave valid. An LP of at most
    ROWS_PER_VARIABLE rows per variable thus takes one pass on all its
    rows. When ``_solve_dual`` rejects a pass's starting basis (singular,
    or not feasible once refactorized: a failure after 0 pivots), that
    pass is solved again from the all-slack basis, which is feasible
    because c >= 0, and counted in ``restarts``. ``iterations`` counts
    the pivots of all passes. ``lp`` and ``basis`` are checked here once;
    the passes trust the working LPs and bases they build. An optimal
    solution is re-checked against every original row: a result that
    violates one beyond its tolerance (``_within_tolerance``) is
    downgraded to ``numerical_failure`` rather than reported as optimal.
    """
    m, n = lp.A.shape
    selected = np.zeros(m, dtype=bool)
    first = np.linspace(0, m - 1, min(m, ROWS_PER_VARIABLE * n))
    selected[first.round().astype(int)] = True
    if basis is not None:
        basis = _checked_basis(basis, m, n)
        named = basis >= n
        selected[basis[named] - n] = True
    rows = np.flatnonzero(selected)
    if basis is not None:
        # the working LP numbers a row by its place in ``rows``
        basis = np.where(named, n + np.searchsorted(rows, basis - n), basis)
    iterations = restarts = 0
    while True:
        # rows of the checked lp, so built without __post_init__'s checks
        working = object.__new__(LinearProgram)
        working.objective, working.A, working.b = lp.objective, lp.A[rows], lp.b[rows]
        result = _solve_dual(working, basis)
        if result[0] == "numerical_failure" and result[3] == 0 and basis is not None:
            restarts += 1
            result = _solve_dual(working)
        status, x, working_y, pivots, basis = result
        iterations += pivots
        if status != "optimal":
            return LPSolution(status=status, iterations=iterations, restarts=restarts)
        residual = _residual(lp, x)
        violated = np.flatnonzero(~selected & (residual > 0.0))
        if not violated.size:
            break
        rows = np.concatenate([rows, violated])
        selected[violated] = True
    y = np.zeros(m)
    y[rows] = working_y
    named = basis >= n
    basis[named] = n + rows[basis[named] - n]
    refined = _refine_primal(lp, x, y)
    if refined is not x:
        x, residual = refined, _residual(lp, refined)
    if not _within_tolerance(lp, x, residual):
        return LPSolution("numerical_failure", iterations=iterations, restarts=restarts)
    return LPSolution(
        status="optimal",
        x=x,
        objective_value=float(lp.objective @ x),
        max_constraint_violation=_violation(lp, x, residual),
        iterations=iterations,
        restarts=restarts,
        basis=basis,
    )
