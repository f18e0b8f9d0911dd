"""Simplex solver: examples, oracle equivalence, invariants."""

import gc
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds import linprog
from codebounds.linprog import EQ, GE, LE, LinearProgram, _violation, solve_lp


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


def random_bounded_lp(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 11))
    A = rng.normal(size=(m, n))
    interior = rng.uniform(0.1, 2.0, n)
    b = A @ interior + rng.uniform(0.05, 1.0, m)
    c = rng.normal(size=n)
    upper = rng.uniform(2.5, 6.0, n)
    return c, A, b, upper


class TestExamples:
    def test_single_variable(self):
        lp = LinearProgram(objective=[-1.0], constraints=[([1.0], LE, 1.0)])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_two_variable_vertex(self):
        # hand enumeration: vertices (0,2), (2,0), (2/3,2/3); optimum 4/3
        lp = LinearProgram(
            objective=[1.0, 1.0],
            constraints=[([1.0, 2.0], GE, 2.0), ([2.0, 1.0], GE, 2.0)],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert sol.x == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-8)

    def test_infeasible(self):
        lp = LinearProgram(
            objective=[1.0],
            constraints=[([1.0], GE, 1.0), ([1.0], LE, 0.0)],
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(objective=[-1.0], constraints=[([-1.0], LE, 0.0)])
        assert solve_lp(lp).status == "unbounded"

    def test_equality_constraint(self):
        lp = LinearProgram(
            objective=[1.0, 2.0],
            constraints=[([1.0, 1.0], EQ, 3.0)],
            upper=[2.0, 5.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_free_and_shifted_variables(self):
        # x free, y in [-2, 5]: minimize x + y with x >= y - 1
        lp = LinearProgram(
            objective=[1.0, 1.0],
            constraints=[([1.0, -1.0], GE, -1.0)],
            lower=[-np.inf, -2.0],
            upper=[np.inf, 5.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0, 1.0], constraints=[([1.0], LE, 0.0)])

    @pytest.mark.parametrize(
        "constraints, message",
        [
            ([([1.0, 0.0], LE, 0.0), ([1.0], GE, 0.0)], "row has length"),
            ([([1.0, 0.0], "<", 0.0)], "unknown relation"),
            ([([1.0, np.nan], LE, 0.0)], "must be finite"),
            ([([1.0, 0.0], EQ, np.inf)], "must be finite"),
        ],
    )
    def test_malformed_rows_rejected(self, constraints, message):
        with pytest.raises(ValueError, match=message):
            LinearProgram(objective=[1.0, 1.0], constraints=constraints)

    def test_rows_stacked_with_relation_codes(self):
        lp = LinearProgram(
            objective=[1.0, 1.0],
            constraints=[
                ([1.0, 2.0], LE, 3.0),
                ([4.0, 5.0], GE, 6.0),
                ([7.0, 8.0], EQ, 9.0),
            ],
        )
        assert lp.A.tolist() == [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]]
        assert lp.b.tolist() == [3.0, 6.0, 9.0]
        assert lp.sense.tolist() == [1.0, -1.0, 0.0]
        empty = LinearProgram(objective=[1.0, 1.0])
        assert empty.A.shape == (0, 2) and empty.b.shape == (0,)

    def test_residual_matches_row_loop(self):
        def loop_reference(lp, x):
            worst = 0.0
            for row, rel, rhs in lp.constraints:
                value = float(np.asarray(row) @ x)
                gap = {LE: value - rhs, GE: rhs - value, EQ: abs(value - rhs)}[rel]
                worst = max(worst, gap)
            return max(worst, float(np.max(lp.lower - x)), 0.0)

        rng = np.random.default_rng(5)
        for _ in range(50):
            m, n = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            relations = rng.choice([LE, GE, EQ], size=m)
            rhs = rng.normal(size=m)
            rows = [(rng.normal(size=n), str(r), b) for r, b in zip(relations, rhs)]
            lp = LinearProgram(objective=np.ones(n), constraints=rows)
            x = rng.normal(size=n)
            expected = loop_reference(lp, x)
            assert _violation(lp, x) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestOracle:
    def test_hundred_random_instances(self, rng):
        solved = 0
        for _ in range(100):
            c, A, b, upper = random_bounded_lp(rng)
            lp = LinearProgram(
                objective=c,
                constraints=[(A[i], LE, b[i]) for i in range(len(b))],
                upper=upper,
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            oracle = enumerate_vertices(c, A, b, upper)
            assert oracle is not None
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
            solved += 1
        assert solved == 100

    def test_mixed_relations_against_oracle(self, rng):
        for _ in range(25):
            c, A, b, upper = random_bounded_lp(rng)
            # flip half the rows to >= form; same feasible set
            rows = []
            for i in range(len(b)):
                if i % 2 == 0:
                    rows.append((A[i], LE, b[i]))
                else:
                    rows.append((-A[i], GE, -b[i]))
            lp = LinearProgram(objective=c, constraints=rows, upper=upper)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            oracle = enumerate_vertices(c, A, b, upper)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)


class TestInvariants:
    def test_reported_solutions_feasible(self, rng):
        for _ in range(50):
            c, A, b, upper = random_bounded_lp(rng)
            lp = LinearProgram(
                objective=c,
                constraints=[(A[i], LE, b[i]) for i in range(len(b))],
                upper=upper,
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            # recheck independently of the solver's own bookkeeping
            worst = max(float(A[i] @ sol.x - b[i]) for i in range(len(b)))
            worst = max(worst, float(np.max(-sol.x)), float(np.max(sol.x - upper)))
            scale = 1.0 + float(np.max(np.abs(b)))
            assert worst <= 1e-9 * scale
            assert sol.max_constraint_violation <= 1e-9 * scale
            assert sol.objective_value == pytest.approx(
                float(np.dot(c, sol.x)), abs=1e-10
            )

    def test_constraint_permutation_stability(self, rng):
        for _ in range(20):
            c, A, b, upper = random_bounded_lp(rng)
            rows = [(A[i], LE, b[i]) for i in range(len(b))]
            base = solve_lp(LinearProgram(objective=c, constraints=rows, upper=upper))
            perm = rng.permutation(len(rows))
            shuffled = solve_lp(
                LinearProgram(
                    objective=c, constraints=[rows[i] for i in perm], upper=upper
                )
            )
            assert base.status == shuffled.status == "optimal"
            assert abs(base.objective_value - shuffled.objective_value) <= 1e-8

    def test_determinism(self, rng):
        c, A, b, upper = random_bounded_lp(rng)
        lp = LinearProgram(
            objective=c,
            constraints=[(A[i], LE, b[i]) for i in range(len(b))],
            upper=upper,
        )
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.x, second.x)


class TestDualFastPath:
    def test_tall_lp_matches_direct_solve(self, rng):
        # enough rows to trigger the dual path; compare to a sliced-down
        # direct solve of the same instance
        n = 5
        m = 400
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 1.0, n)
        b = A @ x0 + rng.uniform(0.01, 0.5, m)
        c = rng.uniform(0.1, 1.0, n)
        tall = LinearProgram(
            objective=c, constraints=[(A[i], LE, b[i]) for i in range(m)]
        )
        sol = solve_lp(tall)
        assert sol.status == "optimal"
        # direct path forced by a harmless finite bound on one variable
        direct = LinearProgram(
            objective=c,
            constraints=[(A[i], LE, b[i]) for i in range(m)],
            upper=[1e9] * n,
        )
        ref = solve_lp(direct)
        assert ref.status == "optimal"
        assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-7)
        worst = max(float(A[i] @ sol.x - b[i]) for i in range(m))
        assert worst <= 1e-9 * (1.0 + float(np.max(np.abs(b))))

    def test_tall_infeasible(self, rng):
        n = 3
        m = 300
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.2, 1.0, n) + 0.1
        rows = [(A[i], LE, b[i]) for i in range(m)]
        rows.append((np.ones(n), LE, -1.0))  # impossible with x >= 0
        lp = LinearProgram(objective=np.ones(n), constraints=rows)
        assert solve_lp(lp).status == "infeasible"

    def test_tall_lp_with_negative_cost_takes_direct_path(self, monkeypatch):
        # y = 0 is dual-feasible only for a nonnegative cost, so one negative
        # entry sends a tall LP to the direct tableau, and only there
        paths = []
        for name in ("_solve_dual", "_solve_direct"):
            real = getattr(linprog, name)

            def spy(lp, maxiter, *basis, real=real, name=name):
                paths.append(name)
                return real(lp, maxiter, *basis)

            monkeypatch.setattr(linprog, name, spy)
        rng = np.random.default_rng(11)
        n, m = 2, 64
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.2, 1.0, n) + rng.uniform(0.05, 1.0, m)
        c = np.array([0.7, -0.4])
        rows = [(A[i], LE, b[i]) for i in range(m)]
        sol = solve_lp(LinearProgram(objective=c, constraints=rows))
        assert paths == ["_solve_direct"]
        assert sol.status == "optimal"
        oracle = enumerate_vertices(c, A, b, [1e6] * n)
        assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
        solve_lp(LinearProgram(objective=np.abs(c), constraints=rows))
        assert paths == ["_solve_direct", "_solve_dual"]


class TestStackedRows:
    def test_arrays_match_row_tuples(self, rng):
        A = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        relations = [LE, GE, EQ, LE, GE]
        rows = LinearProgram(
            objective=np.ones(3),
            constraints=[(A[i], relations[i], b[i]) for i in range(5)],
        )
        stacked = LinearProgram(
            objective=np.ones(3), A=A, b=b, sense=[1.0, -1.0, 0.0, 1.0, -1.0]
        )
        for lp in (rows, stacked):
            assert np.array_equal(lp.A, A) and np.array_equal(lp.b, b)
            assert lp.sense.tolist() == [1.0, -1.0, 0.0, 1.0, -1.0]
            assert len(lp.constraints) == 5
            assert [rel for _, rel, _ in lp.constraints] == relations
            assert np.array_equal(lp.constraints[3][0], A[3])
            assert lp.constraints[-1][2] == b[4]

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ((np.ones((2, 3)), np.zeros(2), np.ones(2)), "row has length"),
            ((np.ones(2), np.zeros(1), np.ones(1)), "row has length"),
            ((np.ones((2, 2)), np.zeros(2), [1.0, 2.0]), "unknown relation"),
            ((np.array([[1.0, np.nan]]), np.zeros(1), np.ones(1)), "must be finite"),
            ((np.ones((1, 2)), [np.inf], np.ones(1)), "must be finite"),
            ((np.ones((2, 2)), np.zeros(3), np.ones(2)), "one entry per row"),
            ((np.ones((2, 2)), None, np.ones(2)), "given together"),
        ],
    )
    def test_malformed_arrays_rejected(self, arrays, message):
        A, b, sense = arrays
        with pytest.raises(ValueError, match=message):
            LinearProgram(objective=[1.0, 1.0], A=A, b=b, sense=sense)

    def test_freed_without_the_cycle_collector(self):
        # no reference cycle: a cutting-plane loop's LPs are freed one by one
        # instead of piling up until the next garbage collection
        gc.disable()
        try:
            lp = LinearProgram(objective=[1.0], A=[[1.0]], b=[1.0], sense=[1.0])
            freed = weakref.ref(lp)
            del lp
            assert freed() is None
        finally:
            gc.enable()

    def test_rows_given_twice_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            LinearProgram(
                objective=[1.0],
                constraints=[([1.0], LE, 1.0)],
                A=[[1.0]],
                b=[1.0],
                sense=[1.0],
            )


def tall_lp(rng, m, n=4):
    """A feasible tall LP that takes the dual path: A x <= b, x >= 0, c > 0."""
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.2, 1.0, n) + rng.uniform(0.01, 0.5, m)
    c = rng.uniform(0.1, 1.0, n)
    return c, A, b


def leading_rows(c, A, b, m):
    return LinearProgram(objective=c, A=A[:m], b=b[:m], sense=np.ones(m))


class TestWarmStart:
    def test_dual_path_reports_a_basis_and_direct_path_none(self, rng):
        c, A, b = tall_lp(rng, 300)
        sol = solve_lp(leading_rows(c, A, b, 300))
        assert sol.status == "optimal"
        assert sol.basis.shape == (4,) and len(set(sol.basis.tolist())) == 4
        direct = LinearProgram(
            objective=c, A=A, b=b, sense=np.ones(300), upper=[1e9] * 4
        )
        assert solve_lp(direct).basis is None

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

    def test_singular_basis_is_a_numerical_failure(self, rng):
        c, A, b = tall_lp(rng, 300, n=2)
        A[7] = A[3]
        b[7] = b[3]
        lp = leading_rows(c, A, b, 300)
        # rows 3 and 7 give two equal dual columns: B is singular
        assert solve_lp(lp, np.array([2 + 3, 2 + 7])).status == "numerical_failure"

    def test_infeasible_basis_is_a_numerical_failure(self):
        # min x s.t. x <= 5 (64 times): x = 0 leaves every row slack, and a
        # basis that makes a row tight prices x at -1, not dual-feasible
        m = 64
        lp = LinearProgram(
            objective=[1.0], A=np.ones((m, 1)), b=np.full(m, 5.0), sense=np.ones(m)
        )
        assert solve_lp(lp).status == "optimal"
        assert solve_lp(lp, np.array([1 + 3])).status == "numerical_failure"

    @pytest.mark.parametrize(
        "basis", [[0, 1, 2], [0, 0, 1, 2], [0, 1, 2, 5 + 300], [0.0, 1.0, 2.0, 3.0]]
    )
    def test_malformed_basis_rejected(self, rng, basis):
        c, A, b = tall_lp(rng, 300)
        with pytest.raises(ValueError, match="basis must name 4 distinct columns"):
            solve_lp(leading_rows(c, A, b, 300), np.array(basis))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_lp_oracle_property(seed):
    rng = np.random.default_rng(seed)
    c, A, b, upper = random_bounded_lp(rng)
    lp = LinearProgram(
        objective=c,
        constraints=[(A[i], LE, b[i]) for i in range(len(b))],
        upper=upper,
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    oracle = enumerate_vertices(c, A, b, upper)
    assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
