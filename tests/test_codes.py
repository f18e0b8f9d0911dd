"""Code representations, axiom verification, catalog, embeddings."""

import copy
import hashlib
import json
import math
import pickle
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds import codes, jsonutil
from codebounds.codes import (
    FAMILIES,
    FunctionalCode,
    LpSpace,
    MetricCode,
    PointedMetricSpace,
    SphericalCode,
    code_from_json_dict,
    code_to_json_dict,
    dual_exponent,
    embed_as_metric_code,
    euclidean_to_functional,
    evaluation_matrix,
    generate,
    lipschitz_norm,
    lp_norm,
    norming_functional,
    random_functional_code,
    verify,
)
from codebounds.gegenbauer import GegenbauerPoly
from codebounds.pfender import PhiSpec, double_sum


class TestVerifySpherical:
    def test_orthonormal_basis(self):
        code = SphericalCode(3, np.eye(3), cos_theta=0.0)
        report = verify(code)
        assert report.valid
        assert report.max_offdiag == 0.0

    def test_icosahedron_coherence(self):
        code = generate("icosahedron")
        report = verify(code, cos_theta=0.5)
        assert report.valid
        # brute-force oracle over all 66 pairs
        oracle = max(
            float(code.vectors[j] @ code.vectors[k])
            for j, k in combinations(range(12), 2)
        )
        assert report.max_offdiag == pytest.approx(oracle, abs=0.0)
        assert report.max_offdiag == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)

    def test_duplicate_vector_invalid(self):
        v = np.array([1.0, 0.0, 0.0])
        code = SphericalCode(3, np.array([v, v]), cos_theta=0.5)
        report = verify(code)
        assert not report.valid
        assert report.max_offdiag == pytest.approx(1.0, abs=1e-12)
        assert any("axiom (iv)" in f for f in report.axiom_failures)
        assert any("duplicate" in w for w in report.warnings)

    def test_non_unit_vector_fails_axiom(self):
        code = SphericalCode(2, np.array([[0.5, 0.0], [0.0, 1.0]]), cos_theta=0.5)
        report = verify(code)
        assert not report.valid
        assert any("axiom (ii)" in f for f in report.axiom_failures)

    def test_nan_is_structural_error(self):
        with pytest.raises(ValueError):
            SphericalCode(2, np.array([[np.nan, 0.0]]), cos_theta=0.5)


class TestNormingFunctional:
    def test_euclidean_self_duality(self):
        f = norming_functional(np.array([0.6, 0.8]), 2.0)
        assert np.allclose(f, [0.6, 0.8], atol=1e-15)

    def test_p4_hand_computation(self):
        x = np.array([2.0 ** -0.25, 2.0 ** -0.25])
        f = norming_functional(x, 4.0)
        assert f == pytest.approx([2.0 ** -0.75, 2.0 ** -0.75], abs=1e-14)
        q = 4.0 / 3.0
        assert float(np.sum(np.abs(f) ** q) ** (1.0 / q)) == pytest.approx(1.0, abs=1e-10)
        assert float(f @ x) == pytest.approx(1.0, abs=1e-10)

    def test_riesz_identity_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 17))
            x = rng.normal(size=d)
            x /= np.linalg.norm(x)
            assert np.max(np.abs(norming_functional(x, 2.0) - x)) <= 1e-12

    def test_non_smooth_norms_rejected(self):
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="non-smooth"):
            norming_functional(x, 1.0)
        with pytest.raises(ValueError, match="non-smooth"):
            norming_functional(x, math.inf)

    def test_requires_unit_vector(self):
        with pytest.raises(ValueError):
            norming_functional(np.array([2.0, 0.0]), 2.0)

    def test_duality_general_p(self, rng):
        for p in (1.5, 3.0, 7.0):
            q = p / (p - 1.0)
            for _ in range(20):
                x = rng.normal(size=5)
                x /= float(np.sum(np.abs(x) ** p) ** (1.0 / p))
                f = norming_functional(x, p)
                assert float(np.sum(np.abs(f) ** q) ** (1.0 / q)) == pytest.approx(
                    1.0, abs=1e-10
                )
                assert float(f @ x) == pytest.approx(1.0, abs=1e-10)


class TestEuclideanToFunctional:
    def test_orthonormal_gives_kronecker_pairs(self):
        code = euclidean_to_functional(generate("orthonormal", dim=4))
        M = evaluation_matrix(code)
        assert np.allclose(M, np.eye(4), atol=1e-15)
        assert verify(code).valid

    def test_coherence_preserved(self):
        for family, dim in (("icosahedron", None), ("simplex", 5), ("d4_roots", None)):
            spherical = generate(family, dim=dim)
            functional = euclidean_to_functional(spherical)
            assert verify(functional).valid
            assert verify(functional).max_offdiag == pytest.approx(
                verify(spherical).max_offdiag, abs=0.0
            )

    def test_simplex_offdiagonals(self):
        code = euclidean_to_functional(generate("simplex", dim=4))
        M = evaluation_matrix(code)
        off = M[~np.eye(5, dtype=bool)]
        assert off == pytest.approx(np.full(20, -0.25), abs=1e-12)

    def test_rejects_invalid_input(self):
        bad = SphericalCode(2, np.array([[2.0, 0.0]]), cos_theta=0.0)
        with pytest.raises(ValueError):
            euclidean_to_functional(bad)


class TestMetricEmbedding:
    def test_single_vector_two_point_space(self):
        code = SphericalCode(3, np.array([[0.0, 0.0, 1.0]]), cos_theta=0.0)
        metric = embed_as_metric_code(code)
        assert metric.n == 1
        assert metric.space.n_points == 2
        assert verify(metric).valid

    def test_icosahedron_thirteen_points(self):
        metric = embed_as_metric_code(generate("icosahedron"))
        assert metric.space.n_points == 13
        assert metric.n == 12
        assert verify(metric).valid

    def test_simplex3_offdiagonals(self):
        metric = embed_as_metric_code(generate("simplex", dim=3))
        assert metric.space.n_points == 5
        M = evaluation_matrix(metric)
        off = M[~np.eye(4, dtype=bool)]
        assert off == pytest.approx(np.full(12, -1.0 / 3.0), abs=1e-12)
        assert verify(metric).valid

    def test_lipschitz_norms_exactly_one(self):
        metric = embed_as_metric_code(generate("cross_polytope", dim=3))
        for f in metric.functions:
            assert lipschitz_norm(metric.space.distance, f) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_base_point_values_zero(self):
        metric = embed_as_metric_code(generate("simplex", dim=2))
        assert np.allclose(metric.functions[:, 0], 0.0, atol=1e-15)

    @pytest.mark.parametrize(
        ("family", "dim"),
        [("simplex", 3), ("simplex", 5), ("simplex", 8),
         ("orthonormal", 4), ("orthonormal", 9), ("orthonormal", 16),
         ("cross_polytope", 3), ("cross_polytope", 8), ("cross_polytope", 64),
         ("icosahedron", None), ("d4_roots", None), ("e8_roots", None)],
    )
    def test_distances_keep_the_broadcast_bits(self, family, dim):
        # the distances are built row by row; the reference is the one
        # (N + 1)^2 x dim difference tensor reduced along its last axis
        code = generate(family, dim)
        pts = np.vstack([np.zeros(code.dim), code.vectors])
        broadcast = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        distance = embed_as_metric_code(code).space.distance
        assert np.array_equal(distance.view(np.int64), broadcast.view(np.int64))
        assert np.array_equal(distance, distance.T)

    def test_e8_embedding_peak_memory(self):
        # two (N + 1)^2 x dim difference tensors would be 3.7 MB each
        code = generate("e8_roots")
        embed_as_metric_code(code)
        tracemalloc.start()
        try:
            embed_as_metric_code(code)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 4.0


class TestMetricVerification:
    def _tiny_metric_code(self):
        # base 0 and two points at distance 1 from it, mutual distance 1.2
        d = np.array(
            [
                [0.0, 1.0, 1.0],
                [1.0, 0.0, 1.2],
                [1.0, 1.2, 0.0],
            ]
        )
        # f_j peaks at tau_j, zero at base, slope within Lipschitz 1
        functions = np.array(
            [
                [0.0, 1.0, -0.2],
                [0.0, -0.2, 1.0],
            ]
        )
        return MetricCode(
            space=PointedMetricSpace(d),
            point_indices=np.array([1, 2]),
            functions=functions,
            cos_theta=-0.2,
        )

    def test_valid_tiny_code(self):
        report = verify(self._tiny_metric_code())
        assert report.valid, report.axiom_failures
        assert report.max_offdiag == pytest.approx(-0.2)

    def test_triangle_inequality_failure_detected(self):
        d = np.array(
            [
                [0.0, 1.0, 1.0],
                [1.0, 0.0, 5.0],
                [1.0, 5.0, 0.0],
            ]
        )
        code = MetricCode(
            space=PointedMetricSpace(d),
            point_indices=np.array([1]),
            functions=np.array([[0.0, 1.0, 0.0]]),
            cos_theta=0.0,
        )
        report = verify(code)
        assert any("triangle" in f for f in report.axiom_failures)

    def test_lipschitz_violation_detected(self):
        code = self._tiny_metric_code()
        bad = MetricCode(
            space=code.space,
            point_indices=code.point_indices,
            functions=code.functions * 1.5,  # norm 1.5, f(tau) = 1.5
            cos_theta=code.cos_theta,
        )
        report = verify(bad)
        assert not report.valid
        assert any("Lipschitz" in f for f in report.axiom_failures)

    def test_different_values_at_distance_zero_are_not_lipschitz(self):
        # five points at one location, each f_j = 1 at its own point and -1 at
        # the other four: distance 0 between tau_j and tau_k, values 2 apart
        n = 5
        d = np.zeros((n + 1, n + 1))
        d[0, 1:] = d[1:, 0] = 1.0
        functions = np.hstack([np.zeros((n, 1)), 2.0 * np.eye(n) - 1.0])
        code = MetricCode(
            space=PointedMetricSpace(d),
            point_indices=np.arange(1, n + 1),
            functions=functions,
            cos_theta=-1.0,
        )
        assert lipschitz_norm(d, functions[0]) == math.inf
        assert lipschitz_norm(np.full((2, 2), -0.0), np.array([0.0, 1.0])) == math.inf
        report = verify(code)
        assert not report.valid
        assert any("Lipschitz norm inf" in f for f in report.axiom_failures)

    @pytest.mark.parametrize(
        "array, cells, value, message",
        [
            ("distance", [(1, 1)], 0.25, "metric: nonzero diagonal in the distance matrix"),
            ("distance", [(2, 3), (3, 2)], -0.25, "metric: negative distance"),
            ("distance", [(2, 3)], 2.0, "metric: distance matrix not symmetric"),
            ("functions", [(0, 0)], 0.25, "axiom: f_0(base) = 0.25, not 0"),
            (
                "distance",
                [(0, 1), (1, 0)],
                1.25,
                "axiom (ii): point 0 lies at distance 1.25 from base",
            ),
        ],
        ids=["diagonal", "negative", "asymmetric", "f_at_base", "tau_off_unit"],
    )
    def test_each_metric_axiom_failure_is_reported(self, array, cells, value, message):
        # simplex(2) over {0} + its 3 vectors, with one axiom broken
        code = embed_as_metric_code(generate("simplex", dim=2))
        arrays = {
            "distance": code.space.distance.copy(),
            "functions": code.functions.copy(),
        }
        for cell in cells:
            arrays[array][cell] = value
        bad = MetricCode(
            PointedMetricSpace(arrays["distance"]),
            code.point_indices,
            arrays["functions"],
            code.cos_theta,
        )
        report = verify(bad)
        assert not report.valid
        assert message in report.axiom_failures

    def test_duplicate_tau_warns_not_fails(self):
        code = self._tiny_metric_code()
        dup = MetricCode(
            space=code.space,
            point_indices=np.array([1, 1]),
            functions=np.array([code.functions[0], code.functions[0]]),
            cos_theta=1.0,  # off-diagonal f_0(tau_1) = f_0(tau_0) = 1
        )
        report = verify(dup)
        assert report.valid
        assert any("duplicate" in w for w in report.warnings)

    @pytest.mark.parametrize(
        "indices, bad",
        [([1.7, 2.2, 3.9, 4.0], "1.7"), (np.array([1.0, 2.0, 3.0, 4.0]), "1.0"),
         ([True, 2, 3, 4], "True"), ([1, None, 3, 4], "None")],
        ids=str,
    )
    def test_point_indices_must_be_integers(self, indices, bad):
        # np.array(..., dtype=int) would truncate [1.7, 2.2, 3.9, 4.0] to a
        # valid [1, 2, 3, 4]
        code = embed_as_metric_code(generate("simplex", dim=3))
        with pytest.raises(ValueError, match=rf"^point_indices must be integers, got {bad}$"):
            MetricCode(code.space, indices, code.functions, code.cos_theta)
        for good in ([1, 2, 3, 4], np.arange(1, 5, dtype=np.uint8)):
            same = MetricCode(code.space, good, code.functions, code.cos_theta)
            assert same.point_indices.tolist() == [1, 2, 3, 4]

    def test_a_space_without_its_base_point_is_rejected(self):
        # a 0 x 0 matrix used to pass, and verify then failed in numpy's
        # "zero-size array to reduction operation maximum"
        with pytest.raises(ValueError, match="^distance matrix is empty: a pointed "
                           "space needs its base point 0$"):
            PointedMetricSpace(np.zeros((0, 0)))
        assert PointedMetricSpace(np.zeros((1, 1))).n_points == 1

    def test_brute_force_norm_matches_claim(self):
        metric = embed_as_metric_code(generate("icosahedron"))
        for f in metric.functions:
            assert abs(lipschitz_norm(metric.space.distance, f) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "family, dim",
        [("e8_roots", None), ("d4_roots", None), ("icosahedron", None), ("simplex", 5)],
    )
    def test_norm_bit_identical_to_pairwise_loop(self, family, dim):
        def loop_reference(distance, values):
            best = 0.0
            for i in range(len(values)):
                mask = distance[i] > 0
                mask[i] = False
                if mask.any():
                    ratios = np.abs(values - values[i])[mask] / distance[i][mask]
                    best = max(best, float(np.max(ratios)))
            return best

        metric = embed_as_metric_code(generate(family, dim=dim))
        for f in metric.functions[:12]:
            d = metric.space.distance
            assert lipschitz_norm(d, f) == loop_reference(d, f)



def _reference_triangle(d):
    """The per-k triangle loop over every pair: for the first k at which
    some slack exceeds TOL_EQ, its first maximal pair in row-major order."""
    slack = np.empty_like(d)
    for k in range(len(d)):
        np.add(d[:, k][:, None], d[k, :][None, :], out=slack)
        np.subtract(d, slack, out=slack)
        if np.max(slack) > codes.TOL_EQ:
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            return f"metric: triangle inequality fails for ({i},{j}) via {k}"
    return None


def _reference_lipschitz(distance, values):
    """One table's Lipschitz norm over every ordered pair at once."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(values[None, :] - values[:, None]) / (distance + 0.0)
    return float(np.fmax.reduce(ratios, axis=None, initial=0.0))


def _facts(code):
    facts = codes._check_axioms(code)
    return (facts.failures, facts.warnings, facts.matrix.tobytes(),
            facts.max_offdiag, facts.worst_pair)


def _reference_facts(code, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(codes, "_triangle_failure", lambda d, off: _reference_triangle(d))
        patch.setattr(codes, "lipschitz_norm", lambda d, table: np.array(
            [_reference_lipschitz(d, f) for f in table]))
        return _facts(code)


def _perturbed(code, kind, rng):
    """``code`` with one defect of the given kind at seeded cells."""
    d, functions = code.space.distance.copy(), code.functions.copy()
    n_points = len(d)
    i, j = (int(x) for x in rng.choice(n_points, size=2, replace=False))
    delta = float(rng.choice([1e-13, 1e-11, 0.1, 0.5, 2.0]))
    if kind == "raised":
        d[i, j] = d[j, i] = d[i, j] + delta
    elif kind == "lowered":
        d[i, j] = d[j, i] = d[i, j] - delta
    elif kind == "asymmetric":
        d[i, j] += float(rng.choice([-1.0, 1.0])) * delta
    elif kind == "negative_diagonal":
        d[i, i] = -delta
    elif kind == "nonzero_diagonal":
        d[i, i] = delta
    elif kind == "zero_distance":
        d[i, j] = d[j, i] = 0.0
    elif kind == "negative_zero_distance":
        d[i, j], d[i, i] = -0.0, -0.0
        d[j, i] = float(rng.choice([-0.0, 0.0, d[j, i]]))
    elif kind == "duplicate_points":
        d[i], d[:, i] = d[j], d[:, j]
        d[i, i] = 0.0
        functions[:, i] = functions[:, j] + float(rng.choice([0.0, delta]))
    elif kind == "zero_function_across_negative_distance":
        # every ratio is 0, NaN or -0.0: the norm's sign of zero must match
        functions[int(rng.integers(len(functions)))] = 0.0
        d[i, j] = d[j, i] = -delta
    return MetricCode(PointedMetricSpace(d), code.point_indices, functions,
                      code.cos_theta)


PERTURBATIONS = (
    "raised", "lowered", "asymmetric", "negative_diagonal", "nonzero_diagonal",
    "zero_distance", "negative_zero_distance", "duplicate_points",
    "zero_function_across_negative_distance",
)


class TestAxiomChecksMatchReference:
    """The candidate-pair triangle check and the pairs-major Lipschitz
    norms give the facts of the per-k loop and of one norm per function
    over every ordered pair: the same failures, warnings and floats."""

    @pytest.mark.parametrize(
        "family, dim",
        [("simplex", 3), ("simplex", 5), ("simplex", 8), ("orthonormal", 4),
         ("orthonormal", 9), ("orthonormal", 16), ("cross_polytope", 3),
         ("cross_polytope", 8), ("icosahedron", None), ("d4_roots", None),
         ("e8_roots", None)],
    )
    def test_catalog_embeddings(self, family, dim, monkeypatch):
        code = embed_as_metric_code(generate(family, dim=dim))
        facts = _facts(code)
        assert facts == _reference_facts(code, monkeypatch)
        assert facts[:2] == ((), ())
        norms = lipschitz_norm(code.space.distance, code.functions)
        reference = [_reference_lipschitz(code.space.distance, f) for f in code.functions]
        assert norms.tobytes() == np.array(reference).tobytes()

    @pytest.mark.parametrize("kind", PERTURBATIONS)
    def test_seeded_perturbations(self, kind, monkeypatch):
        rng = np.random.default_rng(sum(map(ord, kind)))
        failing = 0
        for family, dim in (("simplex", 3), ("icosahedron", None), ("d4_roots", None)):
            base = embed_as_metric_code(generate(family, dim=dim))
            for _ in range(12):
                code = _perturbed(base, kind, rng)
                facts = _facts(code)
                assert facts == _reference_facts(code, monkeypatch), kind
                failing += bool(facts[0])
        assert failing

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_ties_and_negative_diagonals(self, seed):
        # small integer matrices: many tied slacks, signed zeros, negative
        # entries and diagonals, most of them failing
        rng = np.random.default_rng(seed)
        failing = 0
        for _ in range(150):
            n = int(rng.integers(1, 8))
            d = rng.integers(-1, 4, size=(n, n)).astype(float)
            d[rng.random((n, n)) < 0.2] = -0.0
            off = d.copy()
            np.fill_diagonal(off, np.inf)
            message = codes._triangle_failure(d, off)
            assert message == _reference_triangle(d)
            failing += message is not None
        assert failing

    @pytest.mark.parametrize("seed", range(4))
    def test_lipschitz_tables_on_rough_distances(self, seed):
        # random tables over symmetric and asymmetric matrices with zero,
        # -0.0 and negative distances; every norm keeps its bits
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n_points = int(rng.integers(1, 9))
            d = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=(n_points, n_points))
            if rng.random() < 0.5:
                d = np.triu(d) + np.triu(d, 1).T
            table = rng.choice([0.0, -0.0, 0.25, 1.0], size=(3, n_points))
            norms = lipschitz_norm(d, table)
            reference = np.array([_reference_lipschitz(d, f) for f in table])
            assert norms.tobytes() == reference.tobytes()
            one = lipschitz_norm(d, table[0])
            assert type(one) is float
            assert np.array([one]).tobytes() == reference[:1].tobytes()


class TestGenerate:
    def test_simplex_exact_inner_products(self):
        code = generate("simplex", dim=3)
        gram = code.vectors @ code.vectors.T
        off = gram[~np.eye(4, dtype=bool)]
        assert off == pytest.approx(np.full(12, -1.0 / 3.0), abs=1e-14)
        assert verify(code).valid

    def test_simplex_counts_and_validity(self):
        for d in (1, 2, 10, 50):
            code = generate("simplex", dim=d)
            assert code.n == d + 1
            assert verify(code).valid

    def test_d4_roots(self):
        code = generate("d4_roots")
        assert code.n == 24
        assert code.dim == 4
        report = verify(code)
        assert report.valid
        assert report.max_offdiag == pytest.approx(0.5, abs=1e-12)

    def test_e8_roots(self):
        code = generate("e8_roots")
        assert code.n == 240
        assert code.dim == 8
        report = verify(code)
        assert report.valid
        assert report.max_offdiag == pytest.approx(0.5, abs=1e-12)

    def test_cross_polytope(self):
        code = generate("cross_polytope", dim=6)
        assert code.n == 12
        report = verify(code)
        assert report.valid
        assert report.max_offdiag == pytest.approx(0.0, abs=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("leech")

    def test_simplex_dimension_past_the_recursion_limit(self):
        # the simplex is built by a loop, so its dimension is not bounded by
        # the interpreter's recursion limit
        script = (
            "import sys\n"
            "from codebounds import codes\n"
            "sys.setrecursionlimit(100)\n"
            "code = codes.generate('simplex', 150)\n"
            "print(code.n, code.dim, codes.verify(code).valid)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "151 150 True\n", "")

    @pytest.mark.parametrize("family", ["simplex", "orthonormal", "cross_polytope"])
    @pytest.mark.parametrize("dim", [2.5, 3.0, True, 0, -1, None, "3"], ids=repr)
    def test_dimension_is_an_integer_from_1(self, family, dim):
        with pytest.raises(
            ValueError, match=rf"{family} dimension must be an integer >= 1, got"
        ):
            generate(family, dim)

    def test_numpy_integer_dimension_is_accepted(self):
        code = generate("simplex", np.int64(3))
        assert type(code.dim) is int and code.dim == 3
        assert code_to_json_dict(code) == code_to_json_dict(generate("simplex", 3))

    @pytest.mark.parametrize("dim", [2.5, True, 0])
    def test_space_and_code_dimensions_are_integers_from_1(self, dim):
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            LpSpace(2.0, dim)
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            codes.SphericalCode(dim, [[1.0]], 0.0)

    @pytest.mark.parametrize("family, fixed", [
        ("icosahedron", 3), ("d4_roots", 4), ("e8_roots", 8),
    ])
    def test_a_fixed_family_takes_only_its_own_dimension(self, family, fixed):
        expected = code_to_json_dict(generate(family))
        assert code_to_json_dict(generate(family, fixed)) == expected
        assert code_to_json_dict(generate(family, np.int64(fixed))) == expected
        for dim in (fixed - 1, fixed + 1, 24):
            message = rf"^{family} has dimension {fixed}, got dimension {dim}$"
            with pytest.raises(ValueError, match=message):
                generate(family, dim)
        with pytest.raises(ValueError, match=rf"{family} dimension must be an integer"):
            generate(family, 2.5)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_catalog_code_keeps_its_bytes(self, family):
        # sha256 of the files of every dimension 1..16 (or of the one fixed
        # dimension) concatenated, whose numbers are those of the array
        # generators the plain Python catalog replaced; the digests cover
        # the -0.0 entries of cross_polytope, which the files write as -0.0
        digests = {
            "simplex":
                "ee8ee3975249ad1e02cb69490fcf764f8d345018493b8d2f110115e8e0763347",
            "orthonormal":
                "78c08f87982059a8850d4184eeff84c0d4ba71fe3e0a0da06b2e0727fccb08ab",
            "cross_polytope":
                "91663bde1742ecbff7bfa7d435f2701b1a183f6db3febaf5a3e55c1d064034b1",
            "icosahedron":
                "718d3d335d521fe05bed4e25ae8293f8f08e9f7d4d4aa73a7a89b431b0eff317",
            "d4_roots":
                "e8285572009ab09d216023867e1f75d771f3681aad406aaba27401d65569f800",
            "e8_roots":
                "ddca0b0bafac3272acf6b32057b5f11e94a4b518f0e2a0fde146f75878623cf2",
        }
        sized = family in ("simplex", "orthonormal", "cross_polytope")
        text = "".join(
            jsonutil.dumps(code_to_json_dict(generate(family, dim)))
            for dim in (range(1, 17) if sized else [None])
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digests[family]

    @pytest.mark.parametrize("dim", [17, 40, 99])
    def test_simplex_keeps_the_recursions_bits(self, dim):
        # the recursion itself, rescaling the bottom-right corner at each
        # step in O(d^3), is the reference for the per-column scaling
        out = [[0.0] * dim for _ in range(dim + 1)]
        out[dim - 1][dim - 1], out[dim][dim - 1] = 1.0, -1.0
        for k in range(2, dim + 1):
            top = dim - k
            scale = math.sqrt(1.0 - 1.0 / k**2)
            for row in out[top + 1:]:
                row[top + 1:] = [v * scale for v in row[top + 1:]]
                row[top] = -1.0 / k
            out[top][top] = 1.0
        assert generate("simplex", dim).vectors.tobytes() == np.array(out).tobytes()

    def test_canonical_angles(self):
        assert generate("simplex", dim=4).cos_theta == pytest.approx(-0.25)
        assert generate("orthonormal", dim=4).cos_theta == 0.0
        assert generate("icosahedron").cos_theta == pytest.approx(1.0 / math.sqrt(5.0))
        assert generate("d4_roots").cos_theta == 0.5


class TestRandomFunctionalCodes:
    def test_valid_by_construction(self, rng):
        for p in (1.5, 2.0, 3.0):
            for _ in range(10):
                code = random_functional_code(
                    rng, p, int(rng.integers(2, 7)), int(rng.integers(2, 9))
                )
                assert verify(code).valid

    def test_evaluations_within_unit_interval(self, rng):
        code = random_functional_code(rng, 3.0, 5, 8)
        M = evaluation_matrix(code)
        assert np.max(np.abs(M)) <= 1.0 + 1e-12

    def test_axiom_messages_match_row_loop(self, rng):
        def loop_reference(code):
            # the per-row checks of the functional branch, one lp_norm call each
            p = code.space.p
            q = dual_exponent(p)
            failures = []
            for j in range(code.n):
                np_ = lp_norm(code.points[j], p)
                nf = lp_norm(code.functionals[j], q)
                fjj = float(code.functionals[j] @ code.points[j])
                if abs(np_ - 1.0) > 1e-12:
                    failures.append(f"axiom (ii): point {j} has l_{p} norm {np_!r}")
                if abs(nf - 1.0) > 1e-12:
                    failures.append(f"axiom (i): functional {j} has l_{q} norm {nf!r}")
                if abs(fjj - 1.0) > 1e-12:
                    failures.append(f"axiom (iii): f_{j}(tau_{j}) = {fjj!r}, not 1")
            return failures

        fixed = ("icosahedron", "d4_roots", "e8_roots")
        codes = [
            euclidean_to_functional(generate(family, dim=None if family in fixed else 6))
            for family in FAMILIES
        ]
        for p in (1.0, 1.5, 2.0, 3.0, 7.5, math.inf):
            for dim, n in ((2, 3), (5, 8), (17, 30)):
                try:
                    codes.append(random_functional_code(rng, p, dim, n))
                except ValueError:  # p = 1 and inf have no unique norming functional
                    pass
        checked = 0
        for code in codes:
            # scale a few points and functionals so every axiom fails somewhere
            points, functionals = code.points.copy(), code.functionals.copy()
            points[rng.random(code.n) < 0.3] *= 1.0 + 1e-6
            functionals[rng.random(code.n) < 0.3] *= 1.0 - 1e-7
            broken = FunctionalCode(code.space, points, functionals, code.cos_theta)
            for candidate in (code, broken):
                expected = loop_reference(candidate)
                failures = verify(candidate).axiom_failures
                assert [m for m in failures if not m.startswith("axiom (iv)")] == expected
                checked += bool(expected)
        assert checked >= 10

class TestSerialization:
    def test_spherical_round_trip(self):
        code = generate("icosahedron")
        data = code_to_json_dict(code)
        assert data["kind"] == "spherical"
        back = code_from_json_dict(json.loads(jsonutil.dumps(data)))
        assert np.array_equal(back.vectors, code.vectors)
        assert back.cos_theta == code.cos_theta

    def test_functional_round_trip(self, rng):
        code = random_functional_code(rng, 1.5, 4, 6)
        data = code_to_json_dict(code)
        assert data["space"] == {"type": "lp", "p": 1.5, "dim": 4}
        back = code_from_json_dict(json.loads(jsonutil.dumps(data)))
        assert np.array_equal(back.points, code.points)
        assert np.array_equal(back.functionals, code.functionals)
        assert back.space == code.space

    def test_metric_round_trip(self):
        code = embed_as_metric_code(generate("simplex", dim=2))
        data = code_to_json_dict(code)
        assert data["base"] == 0
        back = code_from_json_dict(json.loads(jsonutil.dumps(data)))
        assert np.array_equal(back.space.distance, code.space.distance)
        assert np.array_equal(back.functions, code.functions)
        assert verify(back).valid

    def test_metric_file_base_must_be_zero(self):
        data = code_to_json_dict(embed_as_metric_code(generate("simplex", dim=2)))
        data["base"] = 1
        with pytest.raises(ValueError, match="^base point index must be 0$"):
            code_from_json_dict(data)

    def test_infinity_p_round_trip(self):
        code = FunctionalCode(
            space=LpSpace(math.inf, 2),
            points=np.array([[1.0, 0.5]]),
            functionals=np.array([[1.0, 0.0]]),
            cos_theta=0.0,
        )
        back = code_from_json_dict(code_to_json_dict(code))
        assert back.space.p == math.inf
        assert verify(back).valid

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("spherical", ("dim",), 3.7),
            ("functional", ("space", "dim"), 3.0),
            ("metric", ("base",), True),
            ("metric", ("point_indices", 0), 1.9),
        ],
        ids=str,
    )
    def test_integer_fields_take_json_integers_only(self, kind, field, value):
        # int(...) would truncate 3.7 to 3 and 1.9 to 1, and read true as 1
        code = {c.kind: c for c in _one_code_of_each_kind()}[kind]
        data = json.loads(jsonutil.dumps(code_to_json_dict(code)))
        *parents, last = field
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        name = " ".join(str(key) for key in field if key != 0)
        message = f"^{name} must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            code_from_json_dict(data)

    @pytest.mark.parametrize("value", [5, None, "1234", {"0": 1}], ids=str)
    def test_point_indices_must_be_an_array(self, value):
        # a loop over the field would fail on 5 and None without naming it,
        # and would walk a string's characters
        data = code_to_json_dict(embed_as_metric_code(generate("simplex", dim=3)))
        data["point_indices"] = value
        message = f"point_indices must be an array of integers, got {value!r}"
        with pytest.raises(ValueError) as raised:
            code_from_json_dict(data)
        assert str(raised.value) == message

    def test_code_and_space_must_be_objects(self):
        with pytest.raises(ValueError, match="^code must be a JSON object, got list$"):
            code_from_json_dict([1])
        data = code_to_json_dict(euclidean_to_functional(generate("icosahedron")))
        data["space"] = [2.0, 3]
        with pytest.raises(ValueError, match="^space must be a JSON object, got list$"):
            code_from_json_dict(data)


def _one_code_of_each_kind():
    spherical = generate("icosahedron")
    return spherical, euclidean_to_functional(spherical), embed_as_metric_code(spherical)


def _arrays(code):
    if isinstance(code, SphericalCode):
        return [code.vectors]
    if isinstance(code, FunctionalCode):
        return [code.points, code.functionals]
    return [code.functions, code.point_indices, code.space.distance]


class TestImmutableCodes:
    def test_arrays_are_read_only(self):
        for arr in [a for code in _one_code_of_each_kind() for a in _arrays(code)]:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2

    def test_caller_arrays_stay_writable_and_unchanged(self):
        vectors = np.eye(3)
        code = SphericalCode(3, vectors, 0.0)
        distance = np.array([[0.0, 1.0], [1.0, 0.0]])
        functions = np.array([[0.0, 1.0]])
        metric = MetricCode(PointedMetricSpace(distance), np.array([1]), functions, 0.0)
        for arr in (vectors, distance, functions):
            assert arr.flags.writeable
        vectors[0, 0] = 2.0
        distance[0, 1] = 3.0
        functions[0, 1] = 4.0
        assert code.vectors[0, 0] == 1.0
        assert metric.space.distance[0, 1] == 1.0
        assert metric.functions[0, 1] == 1.0
        assert verify(code).valid and verify(metric).valid

    def test_copies_are_read_only_too(self):
        for code in _one_code_of_each_kind():
            verify(code)
            for twin in (copy.deepcopy(code), pickle.loads(pickle.dumps(code))):
                assert code_to_json_dict(twin) == code_to_json_dict(code)
                assert not any(arr.flags.writeable for arr in _arrays(twin))
                assert verify(twin) == verify(code)

    def test_json_round_trip_is_unchanged(self):
        for code in _one_code_of_each_kind():
            data = code_to_json_dict(code)
            back = code_from_json_dict(json.loads(jsonutil.dumps(data)))
            assert code_to_json_dict(back) == data
            assert verify(back) == verify(code)


def _array_holders():
    spherical, functional, metric = _one_code_of_each_kind()
    return [
        spherical,
        functional,
        metric.space,
        metric,
        spherical._axiom_facts,
        PhiSpec("gegenbauer", [0.0, 1.0], dim=3),
        GegenbauerPoly(3, [1.0, 2.0]),
    ]


@pytest.mark.parametrize("one", _array_holders(), ids=lambda one: type(one).__name__)
def test_frozen_types_holding_arrays_compare_and_hash_by_identity(one):
    # the generated value __eq__ would compare arrays and raise ValueError,
    # and the generated __hash__ would raise TypeError on them
    twin = copy.deepcopy(one)
    assert one == one and one != twin
    assert hash(one) == hash(one)
    assert one in {one} and twin not in {one}


class TestAxiomFactsKeptOnTheCode:
    def test_axiom_iv_is_compared_on_every_call(self):
        code = generate("icosahedron")  # coherence 1/sqrt(5) = 0.447...
        for ct, valid in ((0.45, True), (0.44, False), (0.45, True), (0.44, False)):
            report = verify(code, cos_theta=ct)
            assert report.valid is valid
            iv = [f for f in report.axiom_failures if f.startswith("axiom (iv)")]
            assert len(iv) == (0 if valid else 1)
            if not valid:
                assert iv[0].endswith(f"cos_theta = {ct!r}")

    def test_reports_do_not_share_lists(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        code = SphericalCode(2, vecs, 0.5)
        first = verify(code)
        expected = (list(first.axiom_failures), list(first.warnings))
        assert expected[0] and expected[1]
        first.axiom_failures.append("changed")
        first.warnings.clear()
        second = verify(code)
        assert (second.axiom_failures, second.warnings) == expected


class TestRoundTripInvariant:
    def test_functional_view_matches_spherical(self):
        for family, dim in (
            ("simplex", 3),
            ("orthonormal", 6),
            ("cross_polytope", 4),
            ("icosahedron", None),
            ("d4_roots", None),
            ("e8_roots", None),
        ):
            spherical = generate(family, dim=dim)
            functional = euclidean_to_functional(spherical)
            rs = verify(spherical)
            rf = verify(functional)
            assert rs.valid == rf.valid
            assert rs.max_offdiag == pytest.approx(rf.max_offdiag, abs=0.0)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**31 - 1))
def test_riesz_norming_property(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d)
    x /= np.linalg.norm(x)
    assert np.max(np.abs(norming_functional(x, 2.0) - x)) <= 1e-12


def test_failure_messages_print_plain_floats():
    # numpy 2 writes a numpy scalar's repr as np.float64(...)
    spherical = SphericalCode(2, np.array([[1.0, 0.5], [0.0, 1.0]]), 0.5)
    metric = embed_as_metric_code(generate("simplex", dim=2))
    # distances doubled and functions raised by 1/2: f_j(base) = 0.5,
    # tau_j at distance 2 from the base, f_j(tau_j) = 1.5
    shifted = MetricCode(
        PointedMetricSpace(2.0 * metric.space.distance),
        metric.point_indices,
        metric.functions + 0.5,
        metric.cos_theta,
    )
    messages = verify(spherical).axiom_failures + verify(shifted).axiom_failures
    with pytest.raises(ValueError) as outside:
        double_sum(PhiSpec("gegenbauer", [0.0, 1.0], dim=2), np.array([[1.0, 1.5]]))
    messages.append(str(outside.value))
    for expected in (
        "axiom (ii): vector 0 has norm 1.118033988749895, not 1",
        "axiom: f_0(base) = 0.5, not 0",
        "axiom (ii): point 0 lies at distance 2.0 from base",
        "axiom (iii): f_0(tau_0) = 1.5, not 1",
        "evaluation value 1.5 at (j=0, k=1) lies outside [-1, 1]",
    ):
        assert expected in messages
    assert not [m for m in messages if "np." in m]
