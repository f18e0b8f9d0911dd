"""Dual simplex solver: examples, oracle equivalence, invariants."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from lp_helpers import (
    enumerate_vertices,
    grid_lp,
    random_covering_lp,
    tall_lp,
    violation,
    within_row_tolerance,
)

from codebounds import dgs_bound, linprog
from codebounds.levenshtein import levenshtein_polynomial
from codebounds.linprog import LinearProgram, _residual, solve_lp
from codebounds.scanning import chebyshev_points


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

    def test_zero_rows(self):
        # no rows: x = 0 is optimal, with no row duals
        lp = LinearProgram([1.0, 2.0], np.empty((0, 2)), np.empty(0))
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.objective_value == 0.0
        assert np.array_equal(sol.x, [0.0, 0.0]) and sol.y.shape == (0,)

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
            return [float(row @ x) - rhs for row, rhs in zip(lp.constraints, lp.b)]

        rng = np.random.default_rng(5)
        for _ in range(50):
            m, n = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            lp = LinearProgram(np.ones(n), rng.normal(size=(m, n)), rng.normal(size=m))
            x = rng.normal(size=n)
            expected = loop_reference(lp, x)
            assert _residual(lp, x) == pytest.approx(expected, rel=1e-12, abs=1e-14)


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
            assert violation(lp, sol.x) <= 1e-9 * scale
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


class TestDualFastPath:
    def test_tall_lp_matches_highs(self, rng):
        # imported here only: scipy.optimize costs the package's cold start
        # about 0.5 s, so the program itself never imports it
        from scipy.optimize import linprog as highs

        for m in np.geomspace(64, 3000, 12).astype(int):
            n = int(rng.integers(2, 9))
            c, A, b = tall_lp(rng, m, n)
            lp = LinearProgram(c, A, b)
            sol = solve_lp(lp)
            ref = highs(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert sol.status == "optimal" and ref.status == 0
            assert ref.fun > 0.0
            assert sol.objective_value == pytest.approx(ref.fun, rel=1e-9)
            assert violation(lp, sol.x) <= 1e-9 * (1.0 + np.max(np.abs(b)))

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
# the benchmark's lp_stress cases; (24, .7, 12) is LP-infeasible
STRESS_CASES = [(24, 0.7, 30), (48, 0.5, 30), (32, 0.5, 30), (24, 0.7, 12)]


def first_candidates(m, n):
    """The rows that solve_lp prices first when no basis is given."""
    count = min(m, linprog.ROWS_PER_VARIABLE * n)
    return set(np.linspace(0, m - 1, count).round().astype(int).tolist())


class TestRowGeneration:
    @pytest.mark.parametrize("case", KISSING_CASES + STRESS_CASES, ids=str)
    def test_grid_lp_matches_highs(self, case):
        # imported here only, as in TestDualFastPath
        from scipy.optimize import linprog as highs

        lp = grid_lp(*case)
        sol = solve_lp(lp)
        ref = highs(lp.objective, A_ub=lp.A, b_ub=lp.b, bounds=(0, None), method="highs")
        if case == (24, 0.7, 12):
            assert sol.status == "infeasible" and ref.status == 2
            return
        assert sol.status == "optimal" and ref.status == 0
        assert within_row_tolerance(lp, sol.x)
        # on the ill-conditioned stress LPs HiGHS stops high (923333176
        # against 895465708 at d = 48), so there it is only an upper bound
        assert sol.objective_value <= ref.fun * (1.0 + 1e-9)
        if case in KISSING_CASES:
            assert sol.objective_value == pytest.approx(ref.fun, rel=1e-9)

    @pytest.mark.parametrize("case", KISSING_CASES, ids=str)
    def test_row_duals_certify_the_optimum(self, case):
        # y is 0 off the basis, and 1 + sum_i y_i G_k(r_i) = 0 for each
        # positive a_k, where the cost is 1; the dual objective -b @ y is
        # then the primal's
        lp = grid_lp(*case)
        sol = solve_lp(lp)
        assert sol.y.shape == lp.b.shape
        m, n = lp.A.shape
        off = np.ones(m, dtype=bool)
        off[sol.basis[sol.basis >= n] - n] = False
        assert not sol.y[off].any()
        assert sol.y.min() >= -1e-9 * sol.y.max()
        reduced = lp.objective + lp.A.T @ sol.y
        assert np.abs(reduced[sol.x > 0.0]).max() <= 1e-9 * sol.y.sum()
        assert -lp.b @ sol.y == pytest.approx(sol.objective_value, rel=1e-9)

    @pytest.mark.parametrize("case", KISSING_CASES + STRESS_CASES[:3], ids=str)
    def test_grid_lp_own_basis_takes_no_pivots(self, case):
        # the warm start refactorizes a basis of condition up to about 1e13
        # from the data and must still find it feasible and optimal
        lp = grid_lp(*case)
        cold = solve_lp(lp)
        again = solve_lp(lp, cold.basis)
        assert again.status == "optimal"
        assert (again.iterations, again.restarts) == (0, 0)
        assert again.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    def test_tall_covering_lps_match_the_vertex_oracle(self, rng):
        nonzero = 0
        for _ in range(10):
            lp, oracle_inputs = random_covering_lp(rng, n=2, m=int(rng.integers(40, 60)))
            # more rows than the first candidates hold
            assert len(lp.b) > len(first_candidates(*lp.A.shape))
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            oracle = enumerate_vertices(*oracle_inputs)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
            nonzero += oracle > 1e-9
        assert nonzero >= 5

    def test_infeasible_rows_outside_the_working_set(self, rng):
        c, A, b = tall_lp(rng, 200, n=2)
        # x_0 >= 2 and x_0 <= 1, at rows that the first candidates leave out
        A[5], b[5] = [-1.0, 0.0], -2.0
        A[6], b[6] = [1.0, 0.0], 1.0
        assert not {5, 6} & first_candidates(200, 2)
        assert solve_lp(LinearProgram(c, A, b)).status == "infeasible"

    def test_basis_naming_rows_outside_the_first_working_set(self, rng):
        n, m = 4, 300
        c, A, b = tall_lp(rng, m, n)
        lp = LinearProgram(c, A, b)
        cold = solve_lp(lp)
        named = set((cold.basis[cold.basis >= n] - n).tolist())
        assert named - first_candidates(m, n)
        again = solve_lp(lp, cold.basis)
        assert again.status == "optimal" and again.iterations == 0
        assert np.array_equal(again.basis, cold.basis)
        assert again.objective_value == pytest.approx(cold.objective_value, rel=1e-12)


class TestDegenerateLPs:
    @pytest.mark.parametrize("zero_costs", [1, 2, 3])
    def test_zero_cost_degenerate_lps_match_the_vertex_oracle(self, rng, zero_costs):
        # zero costs make the dual's B^-1 c zero in those rows, so many
        # ratios tie at 0 and the tie-break by basic column decides
        for _ in range(15):
            lp, (c, A, b, upper) = random_covering_lp(rng, n=4)
            c[:zero_costs] = 0.0
            sol = solve_lp(LinearProgram(c, lp.A, lp.b))
            assert sol.status == "optimal"
            oracle = enumerate_vertices(c, A, b, upper)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)


class TestPivotCap:
    @pytest.mark.parametrize("cap", [1, 5, 40])
    def test_pivot_cap_is_a_numerical_failure(self, monkeypatch, cap):
        lp = grid_lp(24, 0.5, 20)
        assert solve_lp(lp).iterations > cap
        monkeypatch.setattr(linprog, "PIVOT_CAP_PER_COLUMN", 0)
        monkeypatch.setattr(linprog, "PIVOT_CAP_BASE", cap)
        sol = solve_lp(lp)
        assert sol.status == "numerical_failure"
        assert sol.iterations == cap and sol.x is None


class TestSingularRefactorization:
    """A basis that turns singular when B^-1 is refactorized from the data
    ends the solve as a numerical_failure, and a B^-1 c that a periodic
    refactorization finds short is repaired at once. The cold solve of the
    degree-10 grid LP at (3, .5) factorizes the all-slack start once, takes
    32 pivots, and refactorizes once in between, at pivot REFACTOR_INTERVAL."""

    def fail_at(self, monkeypatch, singular=None, drift=None):
        """Make the ``singular``-th factorization find B singular and every
        other one run; the ``drift``-th returns a B^-1 c whose first entry
        is short, as drifted updates leave it."""
        real = linprog._factorized
        calls = []

        def factorized(basic_columns, objective):
            calls.append(len(basic_columns))
            if len(calls) == singular:
                return None
            T = real(basic_columns, objective)
            if len(calls) == drift:
                T[0, -1] = -1.0
            return T

        monkeypatch.setattr(linprog, "_factorized", factorized)
        return calls

    def test_at_a_periodic_refactorization(self, monkeypatch):
        lp = grid_lp(3, 0.5, 10)
        assert solve_lp(lp).iterations > linprog.REFACTOR_INTERVAL
        calls = self.fail_at(monkeypatch, 2)
        sol = solve_lp(lp)
        assert sol.status == "numerical_failure" and sol.x is None
        assert sol.iterations == linprog.REFACTOR_INTERVAL
        assert len(calls) == 2

    def test_a_short_entry_is_repaired_at_once(self, monkeypatch):
        # each check of B^-1 c (``_short``) is recorded with the number of
        # factorizations so far: the refactorization at pivot
        # REFACTOR_INTERVAL finds the first entry short, and the next check
        # comes after one repair pivot, before any other factorization, with
        # that entry's row gone from the short ones
        lp = grid_lp(3, 0.5, 10)
        cold = solve_lp(lp)
        calls = self.fail_at(monkeypatch, drift=2)
        real, checks = linprog._short, []

        def short(T, objective):
            found = real(T, objective)
            checks.append((len(calls), found.nonzero()[0].tolist()))
            return found

        monkeypatch.setattr(linprog, "_short", short)
        sol = solve_lp(lp)
        assert checks[:2] == [(1, []), (2, [0])]
        assert checks[2][0] == 2 and 0 not in checks[2][1]
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(cold.objective_value, rel=1e-12)


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

    def test_a_feasible_point_with_a_negative_dual_is_repaired(self):
        # min x s.t. x <= 5 (64 times): the basis that makes row 3 tight has
        # the point x = 5, feasible, but row 3's dual -1 < 0; one dual
        # simplex pivot moves x_0's slack in, to the optimum x = 0
        m = 64
        lp = LinearProgram(objective=[1.0], A=np.ones((m, 1)), b=np.full(m, 5.0))
        cold = solve_lp(lp)
        warm = solve_lp(lp, np.array([1 + 3]))
        assert cold.status == warm.status == "optimal"
        assert np.array_equal(warm.x, cold.x) and np.array_equal(warm.x, [0.0])
        assert (warm.iterations, warm.restarts) == (1, 0)
        assert np.array_equal(warm.basis, [0])

    def test_a_basis_neither_feasible_nor_dual_feasible_is_repaired(self):
        # as above, with a last row x <= 3 among the first candidates: the
        # basis's point x = 5 violates it and row 3's dual is -1. The repair
        # pivot does not need a feasible point: x_0's slack enters, and x = 0
        m = 64
        b = np.full(m, 5.0)
        b[-1] = 3.0
        lp = LinearProgram(objective=[1.0], A=np.ones((m, 1)), b=b)
        warm = solve_lp(lp, np.array([1 + 3]))
        assert warm.status == "optimal" and np.array_equal(warm.x, [0.0])
        assert (warm.iterations, warm.restarts) == (1, 0)

    def test_a_basis_with_two_parallel_dual_columns_restarts_cold(self):
        # min x_0 + x_1 + x_2 s.t. 2.9 x_0 + x_1 + 1.3 x_2 >= 1 and x <= 2:
        # x_0's slack (dual column e_0) and the row x_0 <= 2 (dual column
        # -e_0) make B singular, which np.linalg.inv need not report, so the
        # solve starts over from the all-slack basis and reaches x_0 = 1/2.9
        A = np.vstack([[-2.9, -1.0, -1.3], np.eye(3)])
        lp = LinearProgram(np.ones(3), A, [-1.0, 2.0, 2.0, 2.0])
        warm = solve_lp(lp, np.array([3 + 0, 0, 3 + 1]))
        assert warm.status == "optimal" and warm.restarts == 1
        assert warm.x == pytest.approx([1 / 2.9, 0.0, 0.0], rel=1e-12, abs=1e-12)

    def test_a_repair_with_no_entering_column_restarts_cold(self, monkeypatch):
        # as in the repair above, where x_0's slack enters at alpha = -1;
        # with PIVOT_TOL = 1 no column is eligible, so the solve starts over
        # from the all-slack basis, which is optimal
        monkeypatch.setattr(linprog, "PIVOT_TOL", 1.0)
        m = 64
        lp = LinearProgram(objective=[1.0], A=np.ones((m, 1)), b=np.full(m, 5.0))
        warm = solve_lp(lp, np.array([1 + 3]))
        assert warm.status == "optimal" and np.array_equal(warm.x, [0.0])
        assert (warm.iterations, warm.restarts) == (0, 1)
        assert np.array_equal(warm.basis, [0])

    def test_a_basis_that_is_not_dual_feasible_does_not_end_the_solve(self):
        # lp_bound(60, .5305, 38)'s first-round LP, warm-started from the
        # basis of Levenshtein's f_20 (eps = 1): a_21..a_38 = 0, the rows at
        # -1 and at cos_theta, and the two grid rows around each double root.
        # Its point is feasible and some of its duals are below 0 (down to
        # -1.88 against entries up to 9.98e10), so dual simplex pivots
        # repair it
        d, cos_theta, degree = 60, 0.5305, 38
        lp = grid_lp(d, cos_theta, degree)
        m, eps, zeros = levenshtein_polynomial(d, cos_theta)
        assert (m, eps, len(zeros)) == (20, 1, 9)
        points = chebyshev_points(-1.0, cos_theta, dgs_bound.GRID_POINTS)
        right = np.searchsorted(points, zeros)
        rows = np.concatenate([[0, len(lp.b) - 1], right - 1, right])
        basis = np.concatenate([np.arange(m, degree), degree + rows])
        seed = dgs_bound._levenshtein_basis(points, degree, (m, eps, zeros))
        assert np.array_equal(np.sort(seed), np.sort(basis))
        cold, warm = solve_lp(lp), solve_lp(lp, basis)
        assert cold.status == warm.status == "optimal"
        assert warm.restarts == 0 and 0 < warm.iterations < cold.iterations
        assert warm.objective_value <= cold.objective_value * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "basis", [[0, 1, 2], [0, 0, 1, 2], [0, 1, 2, 5 + 300], [0.0, 1.0, 2.0, 3.0]]
    )
    def test_malformed_basis_rejected(self, rng, basis):
        c, A, b = tall_lp(rng, 300)
        with pytest.raises(ValueError, match="basis must name 4 distinct columns"):
            solve_lp(leading_rows(c, A, b, 300), np.array(basis))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_repaired_warm_start_matches_the_oracle(seed):
    # the optimal basis of the same rows under another cost has a feasible
    # point, and often a dual below 0 under this cost: it is repaired, never
    # dropped
    rng = np.random.default_rng(seed)
    lp, oracle_inputs = random_covering_lp(rng)
    other = solve_lp(LinearProgram(rng.uniform(0.0, 1.0, len(lp.objective)), lp.A, lp.b))
    assert other.status == "optimal"
    sol = solve_lp(lp, other.basis)
    assert sol.status == "optimal" and sol.restarts == 0
    oracle = enumerate_vertices(*oracle_inputs)
    assert sol.objective_value == pytest.approx(oracle, abs=1e-7)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(183)
@example(505)
@example(512)
@example(2544)
@example(2966)
def test_any_caller_basis_reaches_the_oracle(seed):
    # n distinct columns drawn at random: a singular B, a short B^-1 c and
    # an infeasible point all occur, and the solve still ends at the optimum.
    # Each example holds x_j's slack and the row x_j <= u_j
    rng = np.random.default_rng(seed)
    lp, oracle_inputs = random_covering_lp(rng)
    m, n = lp.A.shape
    sol = solve_lp(lp, rng.choice(n + m, size=n, replace=False))
    assert sol.status == "optimal"
    oracle = enumerate_vertices(*oracle_inputs)
    assert sol.objective_value == pytest.approx(oracle, abs=1e-7)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_lp_oracle_property(seed):
    lp, oracle_inputs = random_covering_lp(np.random.default_rng(seed))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    oracle = enumerate_vertices(*oracle_inputs)
    assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
