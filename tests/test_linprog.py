"""Dual simplex solver: examples, oracle equivalence, invariants."""

import gc
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds import dgs_bound, linprog
from codebounds.gegenbauer import basis_values
from codebounds.linprog import (
    FEAS_TOL,
    LinearProgram,
    _solve_dual,
    _violation,
    _within_tolerance,
    solve_lp,
)
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


class TestExamples:
    def test_single_variable(self):
        # min x s.t. x >= 1, written as -x <= -1
        lp = LinearProgram(objective=[1.0], A=[[-1.0]], b=[-1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_two_variable_vertex(self):
        # hand enumeration: vertices (0,2), (2,0), (2/3,2/3); optimum 4/3
        lp = LinearProgram(
            objective=[1.0, 1.0], A=[[-1.0, -2.0], [-2.0, -1.0]], b=[-2.0, -2.0]
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert sol.x == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-8)

    def test_infeasible(self):
        # x >= 1 and x <= 0
        lp = LinearProgram(objective=[1.0], A=[[-1.0], [1.0]], b=[-1.0, 0.0])
        assert solve_lp(lp).status == "infeasible"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0, 1.0], A=[[1.0]], b=[0.0])

    @pytest.mark.parametrize(
        "objective, message",
        [
            ([0.7, -0.4], "nonnegative"),
            ([np.nan, 1.0], "must be finite"),
            ([np.inf, 1.0], "must be finite"),
        ],
    )
    def test_negative_or_non_finite_cost_rejected(self, objective, message):
        # with c >= 0 the all-slack dual basis is feasible: the solver's one path
        with pytest.raises(ValueError, match=message):
            LinearProgram(objective=objective, A=np.ones((64, 2)), b=np.ones(64))

    def test_residual_matches_row_loop(self):
        def loop_reference(lp, x):
            worst = 0.0
            for row, rhs in zip(lp.constraints, lp.b):
                worst = max(worst, float(row @ x) - rhs)
            return max(worst, float(np.max(-x)), 0.0)

        rng = np.random.default_rng(5)
        for _ in range(50):
            m, n = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            lp = LinearProgram(np.ones(n), rng.normal(size=(m, n)), rng.normal(size=m))
            x = rng.normal(size=n)
            expected = loop_reference(lp, x)
            assert _violation(lp, x) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestOracle:
    def test_hundred_random_instances(self, rng):
        nonzero = 0
        for _ in range(100):
            lp, oracle_inputs = random_covering_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            oracle = enumerate_vertices(*oracle_inputs)
            assert oracle is not None
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
            nonzero += oracle > 1e-9
        # x = 0 is optimal whenever it is feasible; most instances cut it off
        assert nonzero >= 50


class TestInvariants:
    def test_reported_solutions_feasible(self, rng):
        for _ in range(50):
            lp, (c, A, b, upper) = random_covering_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            # recheck independently of the solver's own bookkeeping
            worst = max(float(A[i] @ sol.x - b[i]) for i in range(len(b)))
            worst = max(worst, float(np.max(-sol.x)), float(np.max(sol.x - upper)))
            scale = 1.0 + float(np.max(np.abs(lp.b)))
            assert worst <= 1e-9 * scale
            assert sol.max_constraint_violation <= 1e-9 * scale
            assert sol.objective_value == pytest.approx(
                float(np.dot(c, sol.x)), abs=1e-10
            )

    def test_constraint_permutation_stability(self, rng):
        for _ in range(20):
            lp, _ = random_covering_lp(rng)
            base = solve_lp(lp)
            perm = rng.permutation(len(lp.b))
            shuffled = solve_lp(LinearProgram(lp.objective, lp.A[perm], lp.b[perm]))
            assert base.status == shuffled.status == "optimal"
            assert abs(base.objective_value - shuffled.objective_value) <= 1e-8

    def test_determinism(self, rng):
        lp, _ = random_covering_lp(rng)
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.x, second.x)


def tall_lp(rng, m, n=4):
    """A feasible tall LP: A x <= b, x >= 0, c > 0."""
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.2, 1.0, n) + rng.uniform(0.01, 0.5, m)
    c = rng.uniform(0.1, 1.0, n)
    return c, A, b


class TestDualFastPath:
    def test_tall_lp_matches_highs(self, rng):
        # imported here only: scipy.optimize costs the package's cold start
        # about 0.5 s, so the program itself never imports it
        from scipy.optimize import linprog as highs

        for m in np.geomspace(64, 3000, 12).astype(int):
            n = int(rng.integers(2, 9))
            c, A, b = tall_lp(rng, m, n)
            sol = solve_lp(LinearProgram(c, A, b))
            ref = highs(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert sol.status == "optimal" and ref.status == 0
            assert ref.fun > 0.0
            assert sol.objective_value == pytest.approx(ref.fun, rel=1e-9)
            assert sol.max_constraint_violation <= 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_tall_infeasible(self, rng):
        n = 3
        m = 300
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.2, 1.0, n) + 0.1
        A = np.vstack([A, np.ones(n)])
        b = np.append(b, -1.0)  # impossible with x >= 0
        lp = LinearProgram(objective=np.ones(n), A=A, b=b)
        assert solve_lp(lp).status == "infeasible"


# the grid LPs of the benchmark's kissing_lp cases: (d, cos_theta, degree)
KISSING_CASES = [
    (3, 0.5, 10),
    (4, 0.5, 10),
    (8, 0.5, 6),
    (24, 0.5, 10),
    (24, 0.5, 20),
    (32, 0.5, 20),
    (16, 0.7, 16),
]


def grid_lp(d, cos_theta, degree):
    """lp_bound's first-round LP: sum_k a_k G_k(r_i) <= -1 on a Chebyshev grid."""
    points = chebyshev_points(-1.0, cos_theta, dgs_bound.GRID_POINTS)
    rows = basis_values(d, degree, points)[1:].T
    return LinearProgram(np.ones(degree), rows, np.full(len(rows), -1.0))


def working_set_sizes(monkeypatch):
    """Spy on solve_lp's dual simplex runs; records the rows of each."""
    sizes = []
    real = linprog._solve_dual

    def solve(lp, basis=None):
        sizes.append(len(lp.b))
        return real(lp, basis)

    monkeypatch.setattr(linprog, "_solve_dual", solve)
    return sizes


class TestRowGeneration:
    def test_a_short_lp_is_one_pass_over_every_row(self, monkeypatch, rng):
        # with at most ROWS_PER_VARIABLE rows per variable the first working
        # set is the whole LP, in order: one _solve_dual run on the LP itself
        sizes = working_set_sizes(monkeypatch)
        for _ in range(20):
            lp, _ = random_covering_lp(rng)
            assert len(lp.b) <= linprog.ROWS_PER_VARIABLE * len(lp.objective)
            status, _, _, pivots, basis = _solve_dual(lp)
            sizes.clear()
            sol = solve_lp(lp)
            assert sizes == [len(lp.b)]
            assert sol.status == status == "optimal"
            assert sol.iterations == pivots
            assert np.array_equal(sol.basis, basis)

    @pytest.mark.parametrize("case", KISSING_CASES, ids=str)
    def test_grid_lp_matches_one_full_tableau_solve(self, monkeypatch, case):
        lp = grid_lp(*case)
        status, x, *_ = _solve_dual(lp)
        sizes = working_set_sizes(monkeypatch)
        sol = solve_lp(lp)
        assert sol.status == status == "optimal"
        assert sizes[0] < len(lp.b)
        assert sol.objective_value == pytest.approx(lp.objective @ x, rel=1e-9)

    def test_tall_covering_lps_match_the_vertex_oracle(self, monkeypatch, rng):
        sizes = working_set_sizes(monkeypatch)
        nonzero = 0
        for _ in range(10):
            lp, oracle_inputs = random_covering_lp(rng, n=2, m=int(rng.integers(40, 60)))
            sizes.clear()
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert sizes[0] < len(lp.b)
            oracle = enumerate_vertices(*oracle_inputs)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
            nonzero += oracle > 1e-9
        assert nonzero >= 5

    def test_infeasible_rows_outside_the_working_set(self, monkeypatch, rng):
        c, A, b = tall_lp(rng, 200, n=2)
        # x_0 >= 2 and x_0 <= 1, at rows that the first working set leaves out
        A[5], b[5] = [-1.0, 0.0], -2.0
        A[6], b[6] = [1.0, 0.0], 1.0
        sizes = working_set_sizes(monkeypatch)
        assert solve_lp(LinearProgram(c, A, b)).status == "infeasible"
        assert len(sizes) >= 2 and sizes[0] < 200

    def test_basis_naming_rows_outside_the_first_working_set(self, rng):
        n, m = 4, 300
        c, A, b = tall_lp(rng, m, n)
        lp = LinearProgram(c, A, b)
        cold = solve_lp(lp)
        first = np.linspace(0, m - 1, linprog.ROWS_PER_VARIABLE * n).round() + n
        assert np.setdiff1d(cold.basis[cold.basis >= n], first).size
        again = solve_lp(lp, cold.basis)
        assert again.status == "optimal" and again.iterations == 0
        assert np.array_equal(again.basis, cold.basis)
        assert again.objective_value == pytest.approx(cold.objective_value, rel=1e-12)


class TestBlandsRule:
    @pytest.mark.parametrize("case", [(8, 0.5, 6), (24, 0.5, 10), (16, 0.7, 16)])
    def test_bland_from_the_first_pivot_gives_the_same_optimum(self, monkeypatch, case):
        # no default run takes a degenerate streak long enough to switch to
        # Bland's rule; a limit of 0 runs every pivot by it
        lp = grid_lp(*case)
        default = solve_lp(lp)
        monkeypatch.setattr(linprog, "DEGENERATE_STREAK_LIMIT", 0)
        bland = solve_lp(lp)
        assert bland.status == default.status == "optimal"
        assert bland.objective_value == default.objective_value
        assert bland.iterations > default.iterations


class TestRowScaledTolerance:
    def test_rounding_of_large_terms_is_accepted(self, rng):
        # the terms of a row reach 8e7 here: 1e-12 relative noise in x moves
        # rows far beyond an absolute tolerance, yet only by rounding
        lp = grid_lp(24, 0.7, 24)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        noisy = sol.x * (1.0 + 1e-12 * rng.standard_normal(len(sol.x)))
        assert _violation(lp, noisy) > 2.0 * FEAS_TOL
        assert _within_tolerance(lp, noisy)

    @pytest.mark.parametrize("scale", [0.99, 1.0 - 1e-6])
    @pytest.mark.parametrize("case", [(3, 0.5, 10), (8, 0.5, 6)], ids=str)
    def test_scaled_optimum_is_a_numerical_failure(self, monkeypatch, case, scale):
        # the tight rows then exceed -1 by 1 - scale, far above rounding
        lp = grid_lp(*case)
        assert solve_lp(lp).status == "optimal"
        real = linprog._refine_primal
        monkeypatch.setattr(
            linprog, "_refine_primal", lambda lp, x, y: scale * real(lp, x, y)
        )
        assert solve_lp(lp).status == "numerical_failure"


class TestStackedRows:
    @pytest.mark.parametrize(
        "arrays, message",
        [
            ((np.ones((2, 3)), np.zeros(2)), "row has length"),
            ((np.ones(2), np.zeros(1)), "row has length"),
            ((np.ones((2, 2)), np.zeros((2, 1))), "one entry per row"),
            ((np.array([[1.0, np.nan]]), np.zeros(1)), "must be finite"),
            ((np.ones((1, 2)), [np.inf]), "must be finite"),
            ((np.ones((2, 2)), np.zeros(3)), "one entry per row"),
        ],
    )
    def test_malformed_arrays_rejected(self, arrays, message):
        A, b = arrays
        with pytest.raises(ValueError, match=message):
            LinearProgram(objective=[1.0, 1.0], A=A, b=b)

    def test_constraints_view_has_one_read_only_entry_per_row(self, rng):
        A = rng.normal(size=(5, 3))
        lp = LinearProgram(np.ones(3), A, rng.normal(size=5))
        assert len(lp.constraints) == 5
        assert np.array_equal(lp.constraints[3], A[3])
        with pytest.raises(ValueError, match="read-only"):
            lp.constraints[0, 0] = 1.0

    def test_freed_without_the_cycle_collector(self):
        # no reference cycle: a cutting-plane loop's LPs are freed one by one
        # instead of piling up until the next garbage collection
        gc.disable()
        try:
            lp = LinearProgram(objective=[1.0], A=[[1.0]], b=[1.0])
            assert len(lp.constraints) == 1
            freed = weakref.ref(lp)
            del lp
            assert freed() is None
        finally:
            gc.enable()


def leading_rows(c, A, b, m):
    return LinearProgram(objective=c, A=A[:m], b=b[:m])


class TestWarmStart:
    def test_optimal_solution_reports_a_basis(self, rng):
        c, A, b = tall_lp(rng, 300)
        sol = solve_lp(leading_rows(c, A, b, 300))
        assert sol.status == "optimal"
        assert sol.basis.shape == (4,) and len(set(sol.basis.tolist())) == 4

    def test_own_basis_takes_no_pivots(self, rng):
        c, A, b = tall_lp(rng, 300)
        lp = leading_rows(c, A, b, 300)
        cold = solve_lp(lp)
        again = solve_lp(lp, cold.basis)
        assert cold.iterations > 0
        assert again.status == "optimal" and again.iterations == 0
        assert again.objective_value == pytest.approx(cold.objective_value, rel=1e-12)

    def test_appended_rows_match_a_cold_solve(self, rng):
        n, m = 4, 460
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 1.0, n)
        b = A @ x0 + rng.uniform(0.01, 0.5, m)
        b[400:] = A[400:] @ x0 + 1e-3  # rows that cut the earlier optima off
        c = rng.uniform(0.1, 1.0, n)
        basis = None
        for rows in (400, 420, 440, 460):
            lp = leading_rows(c, A, b, rows)
            warm = solve_lp(lp, basis)
            cold = solve_lp(lp)
            assert warm.status == cold.status == "optimal"
            assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
            if basis is not None:
                assert warm.iterations < cold.iterations
            basis = warm.basis

    def test_singular_basis_restarts_cold(self, rng):
        c, A, b = tall_lp(rng, 300, n=2)
        A[7] = A[3]
        b[7] = b[3]
        lp = leading_rows(c, A, b, 300)
        # rows 3 and 7 give two equal dual columns: B is singular, so the
        # pass is solved again from the all-slack basis
        cold = solve_lp(lp)
        warm = solve_lp(lp, np.array([2 + 3, 2 + 7]))
        assert cold.status == warm.status == "optimal"
        assert warm.x == pytest.approx(cold.x, rel=1e-12, abs=1e-12)
        assert (cold.restarts, warm.restarts) == (0, 1)

    def test_infeasible_basis_restarts_cold(self):
        # min x s.t. x <= 5 (64 times): x = 0 leaves every row slack, and a
        # basis that makes a row tight prices x at -1, not dual-feasible
        m = 64
        lp = LinearProgram(objective=[1.0], A=np.ones((m, 1)), b=np.full(m, 5.0))
        cold = solve_lp(lp)
        warm = solve_lp(lp, np.array([1 + 3]))
        assert cold.status == warm.status == "optimal"
        assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.x, [0.0])
        assert (cold.restarts, warm.restarts) == (0, 1)

    @pytest.mark.parametrize(
        "basis", [[0, 1, 2], [0, 0, 1, 2], [0, 1, 2, 5 + 300], [0.0, 1.0, 2.0, 3.0]]
    )
    def test_malformed_basis_rejected(self, rng, basis):
        c, A, b = tall_lp(rng, 300)
        with pytest.raises(ValueError, match="basis must name 4 distinct columns"):
            solve_lp(leading_rows(c, A, b, 300), np.array(basis))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_lp_oracle_property(seed):
    lp, oracle_inputs = random_covering_lp(np.random.default_rng(seed))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    oracle = enumerate_vertices(*oracle_inputs)
    assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
