"""Dual simplex solver for the Delsarte bound's grid LP.

Solves one shape of LP: minimize ``objective @ x`` subject to
``A x <= b`` and ``x >= 0``, with a nonnegative cost. That is the
grid-discretized bound LP: thousands of rows, at most 40 variables. The
solver is a revised simplex on the dual, min b@y s.t. -A^T y + s = c,
y, s >= 0, whose basis has one column per variable. Its whole state is
that basis and the n x n inverse B^-1 of its columns, next to B^-1 c.
Pricing is Dantzig's rule alone: the most negative reduced cost enters,
with no anti-cycling switch, since the pivot cap bounds a degenerate
stall. The dual has no phase 1: with a nonnegative cost its all-slack
basis is feasible, and so is any optimal basis of the same LP with fewer
rows. A solve starts from the basis it is given (all-slack by default),
so a cutting-plane loop can hand each round's optimal basis to the next.

At the simplex multipliers -x, the reduced cost of row i's dual variable
is b_i - A_i x and that of x_j's slack is x_j. An optimum has at most n
tight rows, so only a candidate set of rows is priced. The column q that
the pricing rule picks enters only if its reduced cost d_q lies below
-(OPT_TOL + (n + 1) eps (|c_q| + |column_q| @ |x|)), beyond the rounding
of the dot product that computes it (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 2002, section 3.1); at x ~ 1e9 that
rounding far exceeds OPT_TOL. When no candidate prices out, the full
residual A x - b is computed once and every violated row joins the
candidates; the same B^-1 carries on. The rows never priced have dual 0,
so the candidates' optimum is the full LP's optimum, and a dual ray over
the candidates proves the full LP infeasible. Because cost and x are
both nonnegative the LP is never unbounded. The answer x is not checked
against the rows here: the LP is a search step, and the certificate
built from it is verified on its own.

Cost model: ``solve_lp`` checks the LP and the caller's basis once, and
factorizes that basis once. Each pivot costs one matvec over the
candidate rows (pricing), two n x n matvecs (the multipliers and the
entering column), the entering column's rounding bound (one n-term dot
product) and one n x (n + 1) rank-1 update. B^-1 is refactorized from
the data at every REFACTOR_INTERVAL-th pivot of the solve. Each time the
candidates price out, one full-LP matvec finds the violated rows; the
last of these residuals is reused by the polish. A periodic
refactorization clips B^-1 c at 0 even where the updates have drifted it
below 0 by more than roundoff. That shifts the cost the pivots see: x
then need not be optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
# the candidate rows start as this many evenly spaced rows per variable
ROWS_PER_VARIABLE = 8
# a solve's pivot cap: this many per priced dual column, plus the base; an
# optimum takes a few per column
PIVOT_CAP_PER_COLUMN = 50
PIVOT_CAP_BASE = 2000
# B^-1 is refactorized from the data (O(n^3)) at every this-many-th pivot of
# a solve (O(n^2) each): about equal costs at n = 20
REFACTOR_INTERVAL = 20

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
    iterations: int = 0  # pivots of this solve
    restarts: int = 0  # 1 when the warm-start basis was rejected for all-slack
    # The n primal columns that are nonbasic at the optimum, numbered
    # x_0..x_{n-1} and then the slack of each row. The numbering keeps
    # its meaning when rows are appended, so this can warm-start
    # ``solve_lp`` on a grown LP.
    basis: np.ndarray | None = None
    # the row duals at the optimum, one per row, 0 for rows off the basis
    y: np.ndarray | None = None


def _residual(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """A x - b, one entry per row; positive where x violates the row."""
    return lp.A @ x - lp.b


def _refine_primal(lp, x, y, residual):
    """Active-set least-squares polish of a multiplier-recovered solution.

    Late cutting-plane rounds can cluster nearly identical tight rows;
    the updated inverse then amplifies roundoff in the multipliers.
    Complementary slackness identifies the tight rows (positive duals)
    and the support of x, and re-solving that small system against the
    original data typically cuts the residual by orders of magnitude.
    ``residual`` is A x - b, which the caller has already computed; the
    candidate replaces x when its largest row excess is smaller.
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
    excess = _residual(lp, candidate).max(initial=0.0)
    if excess < residual.max(initial=0.0):
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


def _factorized(basic_columns, objective, check_feasible: bool):
    """[B^-1 | B^-1 c] for the dual basis whose columns are the rows of
    ``basic_columns``, from the data. None when B is singular, or when
    ``check_feasible`` and B^-1 c is below 0 by more than roundoff; without
    the check, B^-1 c is clipped to 0 however far below it lies."""
    n = len(basic_columns)
    T = np.empty((n, n + 1))
    try:
        T[:, :n] = np.linalg.inv(basic_columns.T)
    except np.linalg.LinAlgError:
        return None
    values = T[:, n]
    np.matmul(T[:, :n], objective, out=values)
    if not np.all(np.isfinite(T)):
        return None
    if check_feasible and values.min() < -FEAS_TOL * (1.0 + np.abs(values).max()):
        return None
    np.clip(values, 0.0, None, out=values)
    return T


def solve_lp(lp: LinearProgram, basis=None) -> LPSolution:
    """Solve the LP; deterministic for a fixed input and ``basis``.

    ``basis``, an ``LPSolution.basis`` of the same LP or of one with the
    same variables and fewer (leading) rows, warm-starts the solve. It is
    checked and factorized once: when B is singular or B^-1 c is not
    feasible, the solve starts from the all-slack basis instead, which is
    feasible because c >= 0, and counts one restart. The candidate rows
    start as ROWS_PER_VARIABLE * n evenly spaced rows (all of them in a
    shorter LP) plus the rows named in ``basis``. The solve ends at the
    first optimum of the candidates that no other row violates; a reduced
    cost within its own rounding bound counts as optimal there. A solve
    that reaches its pivot cap, or whose basis turns singular when
    refactorized, is a ``numerical_failure``; nothing else is.
    """
    m, n = lp.A.shape
    # a reduced cost, an (n + 1)-term dot product, is rounded by at most gamma
    # times the same sum in absolute values
    gamma = (n + 1) * np.finfo(float).eps
    # the priced dual columns, numbered as in LPSolution.basis: x_j's slack
    # (j < n, always priced) and the candidate rows (n + i)
    priced = np.zeros(n + m, dtype=bool)
    priced[:n] = True
    first = np.linspace(0, m - 1, min(m, ROWS_PER_VARIABLE * n))
    priced[n + first.round().astype(int)] = True
    if basis is None:
        basis = np.arange(n)
    else:
        basis = _checked_basis(basis, m, n).copy()
        priced[basis] = True
    ids = None
    T, restarts = None, 0
    iterations = 0

    def ended(status):
        return LPSolution(status, iterations=iterations, restarts=restarts)

    while True:
        if ids is None:
            ids = np.flatnonzero(priced)
            rows = ids[n:] - n
            # one row per dual column: e_j for a slack, -A_i for row i
            columns = np.vstack([np.eye(n), -lp.A[rows]])
            magnitudes = np.abs(columns)
            cost = np.concatenate([np.zeros(n), lp.b[rows]])
            positions = np.searchsorted(ids, basis)
            basic_cost = cost[positions]
        if T is None:
            # the basis is checked and factorized once
            T = _factorized(columns[positions], lp.objective, True)
            if T is None:
                restarts = 1
                basis[:], positions[:], basic_cost[:] = range(n), range(n), 0.0
                T = np.hstack([np.eye(n), lp.objective[:, None]])
        # the simplex multipliers are -x; each priced column's reduced cost is
        # c_j + (dual column j) @ x, and the basic ones price at inf
        x = -(basic_cost @ T[:, :n])
        reduced = columns @ x
        reduced += cost
        reduced[positions] = np.inf
        enter = int(reduced.argmin())
        # a reduced cost inside its own rounding does not price out
        rounding = gamma * (abs(cost[enter]) + magnitudes[enter] @ np.abs(x))
        if reduced[enter] >= -(OPT_TOL + rounding):
            np.clip(x, 0.0, None, out=x)
            residual = _residual(lp, x)
            violated = np.flatnonzero(~priced[n:] & (residual > 0.0))
            if not violated.size:
                break
            priced[n + violated] = True
            ids = None
            continue
        if iterations >= PIVOT_CAP_PER_COLUMN * len(ids) + PIVOT_CAP_BASE:
            return ended("numerical_failure")
        entering = T[:, :n] @ columns[enter]
        eligible = (entering > PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return ended("infeasible")
        # updates can leave B^-1 c below 0: such a row ties at ratio 0,
        # where a negative ratio would step backwards
        ratios = np.maximum(T[eligible, n], 0.0) / entering[eligible]
        best = float(ratios.min())
        limit = best + 1e-12 * (1.0 + abs(best))
        # tie-break: the tied row whose basic column has the lowest index
        ties = eligible[ratios <= limit]
        leave = int(ties[basis[ties].argmin()])
        T[leave] /= entering[leave]
        entering[leave] = 0.0
        T -= entering[:, None] * T[leave]
        basis[leave], positions[leave] = ids[enter], enter
        basic_cost[leave] = cost[enter]
        iterations += 1
        if iterations % REFACTOR_INTERVAL == 0:
            T = _factorized(columns[positions], lp.objective, False)
            if T is None:
                return ended("numerical_failure")
    y = np.zeros(m)
    tight = basis >= n
    y[basis[tight] - n] = T[tight, n]
    x = _refine_primal(lp, x, y, residual)
    return LPSolution(
        status="optimal",
        x=x,
        objective_value=float(lp.objective @ x),
        iterations=iterations,
        restarts=restarts,
        basis=basis,
        y=y,
    )
