"""Pfender-style bounds: arithmetic, conditions, per-code checks."""

import copy
import hashlib
import importlib.util
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds import codes, gegenbauer, jsonutil, pfender
from codebounds.dgs_bound import lp_bound, pfender_form
from codebounds.errors import TheoremViolationError
from codebounds.gegenbauer import basis_values
from codebounds.pfender import (
    COND_TOL,
    PhiSpec,
    certificate_from_json_dict,
    certificate_to_json_dict,
    double_sum,
    functional_pfender_check,
    interval_margin,
    pfender_bound,
    phi_from_json_dict,
    phi_to_json_dict,
)
from codebounds.scanning import chebyshev_points, critical_points


HARNESS = Path(__file__).resolve().parent.parent / "scripts" / "consistency_harness.py"
# the harness's lp_catalog() as it was when the report digest was pinned:
# the three phi = P - a_0 and c = a_0 of lp_bound(3, .5, 10), (4, .5, 10)
# and (8, .5, 6), written with 17 significant digits (every bit round-trips)
LP_PHIS = Path(__file__).resolve().parent / "harness_lp_phis.json"


def harness():
    spec = importlib.util.spec_from_file_location("consistency_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def harness_catalog():
    """The 27 (name, phi, c, variant) certificates of the consistency harness."""
    return harness().certificate_catalog()


def stored_harness_catalog():
    """The harness catalog with its three LP certificates read from LP_PHIS,
    so that a change to the LP moves none of its bits."""
    stored = [
        (
            entry["name"],
            pfender.phi_from_json_dict(entry["phi"]),
            jsonutil.json_real(entry["c"], "c"),
            "interval",
        )
        for entry in jsonutil.load_path(str(LP_PHIS))
    ]
    return harness().closed_form_catalog() + stored


def g1(dim):
    return PhiSpec("gegenbauer", [0.0, 1.0], dim=dim)


def shifted_square(d):
    """phi(r) = r^2 - 1/d in the monomial basis."""
    return PhiSpec("monomial", [-1.0 / d, 0.0, 1.0])


class TestPhiSpec:
    def test_gegenbauer_eval(self):
        phi = PhiSpec("gegenbauer", [0.5, 0.0, 0.5], dim=3)
        # 0.5 + 0.5 (3 r^2 - 1)/2 at r = 0.2
        assert phi(0.2) == pytest.approx(0.5 + 0.5 * (3 * 0.04 - 1) / 2, abs=1e-15)

    def test_monomial_eval(self):
        phi = PhiSpec("monomial", [1.0, -2.0, 1.0])
        assert phi(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_table_eval_linear_interpolation(self):
        nodes = np.linspace(-1.0, 1.0, 21)
        phi = PhiSpec("table", nodes)  # tabulates phi(r) = r
        assert phi(0.123) == pytest.approx(0.123, abs=1e-15)
        assert phi.node_spacing == pytest.approx(0.1)

    def test_phi_at_1_consistency(self):
        for phi in (g1(4), shifted_square(4), PhiSpec("table", [-1.0, 0.0, 1.0])):
            assert abs(phi.phi_at_1 - phi(1.0)) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiSpec("gegenbauer", [1.0])  # missing dim
        with pytest.raises(ValueError):
            PhiSpec("fourier", [1.0])
        with pytest.raises(ValueError):
            PhiSpec("table", [1.0])  # single node

    @pytest.mark.parametrize("dim", [3.5, np.float64(3.0), True, None, 1])
    def test_gegenbauer_dim_is_an_integer_from_2(self, dim):
        # checked when phi is made, not at its first evaluation
        with pytest.raises(ValueError, match=r"dimension must be an integer >= 2"):
            PhiSpec("gegenbauer", [0.0, 1.0], dim=dim)

    def test_numpy_integer_dim_is_accepted(self):
        phi = PhiSpec("gegenbauer", [0.0, 1.0], dim=np.int64(3))
        assert phi(0.25) == g1(3)(0.25)


class TestStructuralBound:
    def test_tetrahedron_value(self):
        cert = pfender_bound(g1(3), 1.0 / 3.0, -1.0 / 3.0)
        assert cert.verification.passed
        assert cert.bound_real == pytest.approx(4.0, abs=1e-12)
        assert cert.bound_int == 4
        # tightness: the regular simplex in R^3 has 4 points at this angle
        simplex = codes.generate("simplex", dim=3)
        assert simplex.n == 4
        assert codes.verify(simplex).valid

    def test_special_case_clause(self):
        # phi(1) = 0.5, c = 0.25: bound 3, and 3 <= 1/c = 4
        phi = PhiSpec("table", [-1.0, -0.25, 0.5])  # linear-ish, phi(1) = 0.5
        cert = pfender_bound(phi, 0.25, -0.5)
        assert cert.bound_real == pytest.approx(3.0, abs=1e-12)
        assert cert.verification.special_case_le_one
        assert cert.bound_int <= math.floor(1.0 / 0.25 + 1e-9)

    def test_simplex_family_closed_form(self):
        for d in range(2, 51):
            cert = pfender_bound(g1(d), 1.0 / d, -1.0 / d)
            assert cert.verification.passed
            assert cert.bound_real == pytest.approx(d + 1.0, abs=1e-12)

    def test_condition_ii_violation_reported(self):
        cert = pfender_bound(g1(3), 0.5, -1.0 / 3.0)  # r + 0.5 > 0 at r = -1/3
        assert not cert.verification.passed
        assert not cert.verification.condition_ii_ok
        assert cert.verification.condition_ii_location == pytest.approx(
            -1.0 / 3.0, abs=1e-9
        )
        assert any("not a certificate" in m for m in cert.verification.messages)

    def test_negative_coefficient_not_established(self):
        phi = PhiSpec("gegenbauer", [0.0, -1.0], dim=3)
        cert = pfender_bound(phi, 0.5, -0.6)
        assert not cert.verification.passed
        assert "condition (i) not established" in cert.verification.condition_i_evidence

    def test_coefficient_check_has_no_tolerance(self):
        # r + 1/3 <= 0 on [-1, -1/3]: only the coefficient -1e-13 fails
        phi = PhiSpec("gegenbauer", [0.0, 1.0, -1e-13], dim=3)
        cert = pfender_bound(phi, 1.0 / 3.0, -1.0 / 3.0)
        assert cert.verification.condition_ii_ok
        assert not cert.verification.condition_i_ok
        assert not cert.verification.passed
        assert cert.verification.condition_i_evidence.endswith(
            "negative Gegenbauer coefficient -1e-13"
        )

    def test_non_gegenbauer_not_structural(self):
        cert = pfender_bound(shifted_square(3), 1.0 / 3.0, 0.0)
        assert not cert.verification.condition_i_ok

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            pfender_bound(g1(3), 0.0, -0.5)
        with pytest.raises(ValueError):
            pfender_bound(g1(3), -0.2, -0.5)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_c_is_named(self, c):
        message = "c must be strictly positive and finite"
        with pytest.raises(ValueError, match=message):
            pfender_bound(g1(3), c, -0.5)
        code = codes.generate("orthonormal", dim=3)
        with pytest.raises(ValueError, match=message):
            functional_pfender_check(code, shifted_square(3), c, variant="finite_set")

    def test_scale_behavior(self):
        # (lambda phi, lambda c) leaves the bound and both conditions alone
        base = pfender_bound(g1(6), 1.0 / 6.0, -1.0 / 6.0)
        for lam in (0.5, 2.0, 40.0):
            scaled_phi = PhiSpec("gegenbauer", [0.0, lam], dim=6)
            scaled = pfender_bound(scaled_phi, lam / 6.0, -1.0 / 6.0)
            assert scaled.verification.passed == base.verification.passed
            assert scaled.bound_real == pytest.approx(base.bound_real, abs=1e-10)


class TestDoubleSum:
    def test_identity_square(self):
        phi = PhiSpec("monomial", [0.0, 0.0, 1.0])
        assert double_sum(phi, np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_shifted_square_identity_is_zero(self):
        for d in (2, 5, 11):
            assert double_sum(shifted_square(d), np.eye(d)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_gram_double_sum_is_squared_norm(self, rng):
        phi = g1(4)
        for _ in range(25):
            vecs = rng.normal(size=(int(rng.integers(1, 9)), 4))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            gram = np.clip(vecs @ vecs.T, -1.0, 1.0)
            expected = float(np.linalg.norm(vecs.sum(axis=0)) ** 2)
            assert double_sum(phi, gram) == pytest.approx(expected, abs=1e-9)
            assert double_sum(phi, gram) >= -1e-12

    def test_out_of_range_entry_named(self):
        phi = g1(3)
        M = np.eye(2)
        M[0, 1] = 1.5
        with pytest.raises(ValueError, match=r"j=0, k=1"):
            double_sum(phi, M)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            double_sum(g1(3), np.array([[np.nan]]))


class TestFunctionalCheck:
    def test_orthonormal_finite_set(self):
        for d in (2, 5, 9, 16):
            code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=d))
            result = functional_pfender_check(
                code, shifted_square(d), 1.0 / d, variant="finite_set"
            )
            assert result.applicable
            assert result.certificate.bound_real == pytest.approx(d, abs=1e-9)
            assert result.n == d
            assert abs(result.slack) <= 1e-9

    def test_simplex_interval_zero_slack(self):
        for d in (2, 4, 9):
            code = codes.euclidean_to_functional(codes.generate("simplex", dim=d))
            result = functional_pfender_check(
                code, g1(d), 1.0 / d, variant="interval", cos_theta=-1.0 / d
            )
            assert result.applicable
            assert result.certificate.bound_real == pytest.approx(d + 1, abs=1e-9)
            assert abs(result.slack) <= 1e-9

    @pytest.mark.parametrize("variant", ["interval", "finite_set"])
    def test_single_point_code(self, variant):
        code = codes.SphericalCode(3, np.array([[1.0, 0.0, 0.0]]), cos_theta=-0.5)
        result = functional_pfender_check(code, g1(3), 0.5, variant=variant)
        assert result.applicable
        assert result.n == 1
        assert result.certificate.bound_real >= 1.0
        if variant == "finite_set":
            # no off-diagonal values: condition (ii) holds on the empty set
            checked = result.certificate.verification
            assert checked.condition_ii_margin == -math.inf
            assert checked.condition_ii_location is None

    @pytest.mark.parametrize("variant", ["interval", "finite_set"])
    @pytest.mark.parametrize("cos_theta", [1.0000001, 2.0])
    def test_angle_above_one_raises_in_both_variants(self, variant, cos_theta):
        # the code is valid at any angle above its largest value, so the
        # angle itself must be refused, as the interval check refuses it
        code = codes.euclidean_to_functional(codes.generate("simplex", dim=3))
        with pytest.raises(ValueError, match=r"^cos_theta must lie in \[-1, 1\]$"):
            functional_pfender_check(
                code, shifted_square(3), 1.0 / 3.0, variant=variant, cos_theta=cos_theta
            )

    def test_spherical_code_accepted_directly(self):
        code = codes.generate("d4_roots")
        result = functional_pfender_check(
            code, shifted_square(4), 1.0 / 4.0, variant="interval"
        )
        # condition (ii) fails on [-1, 1/2]: phi(1/2) + 1/4 = 0.25 > 0
        assert not result.applicable
        assert "condition (ii)" in result.reason

    def test_inapplicable_is_not_an_error(self):
        code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=4))
        result = functional_pfender_check(code, g1(4), 1.0, variant="interval")
        assert not result.applicable
        assert result.slack is None
        assert result.reason is not None

    def test_invalid_code_is_precondition_error(self):
        bad = codes.SphericalCode(2, np.array([[2.0, 0.0]]), cos_theta=0.0)
        with pytest.raises(ValueError, match="verification"):
            functional_pfender_check(bad, g1(2), 0.5)

    @pytest.mark.parametrize("case", ["bad_norm", "triangle", "angle"])
    def test_invalid_code_raises_what_verify_reports(self, case):
        # a functional code with a point of l_2 norm 1.5, a metric code
        # whose distances break the triangle inequality, and the icosahedron
        # checked at an angle below its coherence 1/sqrt(5) (axiom (iv))
        if case == "bad_norm":
            code = codes.FunctionalCode(
                codes.LpSpace(2.0, 2), [[1.0, 0.0], [0.0, 1.5]],
                [[1.0, 0.0], [0.0, 1.0 / 1.5]], 0.0,
            )
            cos_theta = None
        elif case == "triangle":
            d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
            code = codes.MetricCode(
                codes.PointedMetricSpace(d), [1, 2],
                [[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]], -1.0,
            )
            cos_theta = None
        else:
            code, cos_theta = codes.generate("icosahedron"), 0.3
        failures = codes.verify(code, cos_theta).axiom_failures
        assert len(failures) >= 1
        ct = code.cos_theta if cos_theta is None else cos_theta
        expected = f"code fails its own verification at cos_theta={ct!r}: {failures}"
        for variant in ("interval", "finite_set"):
            with pytest.raises(ValueError) as raised:
                functional_pfender_check(
                    code, g1(3), 0.5, variant=variant, cos_theta=cos_theta
                )
            assert str(raised.value) == expected

    def test_honest_certificates_never_alarm(self):
        # with exact conditions the bound always covers the code, so the
        # alarm is unreachable through correct inputs
        code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=6))
        phi = PhiSpec("monomial", [1.0])  # phi == 1 everywhere
        result = functional_pfender_check(code, phi, 0.1, variant="finite_set")
        assert not result.applicable  # condition (ii) fails; theorem safe

    def test_theorem_violation_raises(self):
        # tolerance abuse: with c at the condition tolerance scale, a
        # condition-(ii) margin inside +1e-9 is accepted while the proof's
        # slack per off-diagonal pair amplifies to O(1), so the "bound"
        # genuinely drops below n and the alarm must fire
        code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=4))
        phi = PhiSpec("table", [-1.0, -1e-10, 1e-9])  # phi(0)+c = 9e-10, tolerated
        with pytest.raises(TheoremViolationError):
            functional_pfender_check(code, phi, 1e-9, variant="finite_set")

    def test_single_evaluation_matches_separate_evaluations(self, rng):
        # condition (i) is double_sum bit for bit, and the finite-set margin
        # and its location are those of phi evaluated on the off-diagonal
        # values alone
        for phi, c in ((g1(3), 1.0 / 3.0), (shifted_square(3), 1.0 / 3.0)):
            for _ in range(10):
                code = codes.random_functional_code(rng, 3.0, 3, int(rng.integers(2, 9)))
                M, n = codes.evaluation_matrix(code), code.n
                result = functional_pfender_check(code, phi, c, variant="finite_set")
                checked = result.certificate.verification
                assert checked.condition_i_evidence == (
                    f"double sum = {double_sum(phi, M)!r} over {n}x{n} evaluations"
                )
                off = M[~np.eye(n, dtype=bool)]
                shifted = phi(np.clip(off, -1.0, 1.0)) + c
                best = int(np.argmax(shifted))
                assert checked.condition_ii_margin == float(shifted[best])
                assert checked.condition_ii_location == float(off[best])

    def test_finite_set_location_is_the_unclipped_value(self):
        # v . v rounds to 1 + 2^-52, so f_0(tau_1) = -1.0000000000000002:
        # phi sees it clipped to -1, and the report names the value itself
        v = np.array([0.9926871591714211, 0.12071538433925337])
        code = codes.SphericalCode(2, np.array([v, -v]), -1.0)
        result = functional_pfender_check(code, shifted_square(2), 0.5, variant="finite_set")
        checked = result.certificate.verification
        assert (checked.condition_ii_margin, checked.condition_ii_location) == (
            1.0, -1.0000000000000002
        )
        assert not result.applicable

    def test_range_check_survives_the_single_evaluation(self):
        # f_0(tau_1) = -1 - 1e-10 passes verify (f_0's Lipschitz norm
        # 1 + 1e-10 is within TOL_LIP) but lies outside [-1, 1] by more than
        # double_sum's 1e-12, so the check must refuse the code
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        functions = np.array([[0.0, 1.0, -1.0 - 1e-10], [0.0, -1.0, 1.0]])
        code = codes.MetricCode(
            codes.PointedMetricSpace(d), np.array([1, 2]), functions, -0.5
        )
        assert codes.verify(code).valid
        # a failed check keeps nothing on the code, so it raises every time
        for _ in range(3):
            for variant in ("interval", "finite_set"):
                with pytest.raises(ValueError, match=r"\(j=0, k=1\) lies outside \[-1, 1\]"):
                    functional_pfender_check(code, g1(3), 0.5, variant=variant)
                assert "_axiom_facts" in vars(code)
                assert "_evaluation_entries" not in vars(code)

    def test_code_axioms_are_checked_once_per_code(self, monkeypatch):
        # the Lipschitz and triangle checks and the range check and clipping
        # of the evaluation matrix depend on the code alone: one metric code
        # checked against every certificate of the harness runs them once,
        # one Lipschitz norm call for all its functions and one check of the
        # matrix
        code = codes.embed_as_metric_code(codes.generate("icosahedron"))
        catalog = harness_catalog()
        calls, checked = [], []
        real_lipschitz_norm = codes.lipschitz_norm
        real_clipped_entries = codes._clipped_entries

        def lipschitz_norm(distance, values):
            calls.append(values)
            return real_lipschitz_norm(distance, values)

        def clipped_entries(M):
            checked.append(M)
            return real_clipped_entries(M)

        monkeypatch.setattr(codes, "lipschitz_norm", lipschitz_norm)
        monkeypatch.setattr(codes, "_clipped_entries", clipped_entries)
        applicable = [
            functional_pfender_check(code, phi, c, variant=variant).applicable
            for _, phi, c, variant in catalog
        ]
        assert (len(catalog), len(calls), len(checked)) == (27, 1, 1)
        assert calls[0].shape == (code.n, code.space.n_points)
        assert any(applicable)
        # double_sum checks the matrix it is given on every call
        M = codes.evaluation_matrix(code)
        double_sum(g1(3), M)
        double_sum(g1(3), M)
        assert len(checked) == 3 and checked[-1] is M

    def test_each_code_and_phi_computes_its_facts_once(self, monkeypatch):
        # codes of each kind, each checked against every certificate of the
        # harness: each code checks its axioms and its evaluation matrix
        # once, and each polynomial phi with an interval check finds its
        # critical points once
        pool = [
            codes.generate("cross_polytope", dim=3),
            codes.euclidean_to_functional(codes.generate("simplex", dim=4)),
            codes.embed_as_metric_code(codes.generate("icosahedron")),
        ]
        catalog = harness_catalog()
        axioms, matrices, roots = [], [], []
        real_check_axioms = codes._check_axioms
        real_clipped_entries = codes._clipped_entries
        real_critical_points = pfender.critical_points

        def check_axioms(code):
            axioms.append(code)
            return real_check_axioms(code)

        def clipped_entries(M):
            matrices.append(M)
            return real_clipped_entries(M)

        def critical(samples, lo, hi):
            roots.append(samples)
            return real_critical_points(samples, lo, hi)

        monkeypatch.setattr(codes, "_check_axioms", check_axioms)
        monkeypatch.setattr(codes, "_clipped_entries", clipped_entries)
        monkeypatch.setattr(pfender, "critical_points", critical)
        for _ in range(2):
            for code in pool:
                for _, phi, c, variant in catalog:
                    functional_pfender_check(code, phi, c, variant=variant)
        assert [id(code) for code in axioms] == [id(code) for code in pool]
        assert all(M is code._axiom_facts.matrix for M, code in zip(matrices, pool))
        assert len(matrices) == len(pool)
        searched = [
            phi for _, phi, _, variant in catalog
            if variant == "interval" and phi.basis != "table"
        ]
        assert len(roots) == len(searched) > 0
        assert all("_candidates" in vars(phi) for phi in searched)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda code: pickle.loads(pickle.dumps(code))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_a_checked_code_keep_nothing(self, clone):
        code = codes.euclidean_to_functional(codes.generate("icosahedron"))
        catalog = harness_catalog()

        def reports(one):
            return [
                report_line(functional_pfender_check(one, phi, c, variant=variant))
                for _, phi, c, variant in catalog
            ]

        expected = reports(code)
        assert {"_axiom_facts", "_evaluation_entries"} <= vars(code).keys()
        twin = clone(code)
        assert "_evaluation_entries" not in vars(twin)
        assert "_axiom_facts" not in vars(twin)
        assert reports(twin) == expected

    def test_phi_at_1_is_evaluated_once_per_check(self, monkeypatch):
        # phi(1) depends on phi alone. The bound takes phi(1) + c as the sum
        # of phi's coefficients and c, once per check; phi itself is evaluated
        # at 1 (a full basis_values call) only for a theorem violation's message
        evaluations, bounds = [], []
        real_phi_at_1, real_bound_values = PhiSpec.phi_at_1, pfender.bound_values

        def counting(phi):
            evaluations.append(phi)
            return real_phi_at_1.fget(phi)

        def bound_values(phi, c):
            bounds.append(phi)
            return real_bound_values(phi, c)

        monkeypatch.setattr(PhiSpec, "phi_at_1", property(counting))
        monkeypatch.setattr(pfender, "bound_values", bound_values)
        code = codes.euclidean_to_functional(codes.generate("simplex", dim=4))
        functional_pfender_check(code, g1(4), 0.25, variant="interval", cos_theta=-0.25)
        assert (len(evaluations), len(bounds)) == (0, 1)
        code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=4))
        phi = PhiSpec("table", [-1.0, -1e-10, 1e-9])
        with pytest.raises(TheoremViolationError, match=r"phi\(1\) = 1e-09"):
            functional_pfender_check(code, phi, 1e-9, variant="finite_set")
        assert (len(evaluations), len(bounds)) == (1, 2)
        pfender_bound(g1(4), 0.25, -0.25)
        assert (len(evaluations), len(bounds)) == (1, 3)


def report_line(result):
    """Every field of a check's report, floats by repr."""
    checked = result.certificate.verification
    return repr((
        result.applicable,
        result.reason,
        checked.condition_i_evidence,
        checked.condition_ii_margin,
        checked.condition_ii_location,
        result.slack,
        result.certificate.bound_real,
    ))


# the catalog codes of the consistency harness
CATALOG_CODES = (
    ("simplex", 3), ("simplex", 5), ("simplex", 8),
    ("orthonormal", 4), ("orthonormal", 9), ("orthonormal", 16),
    ("cross_polytope", 3), ("cross_polytope", 8),
    ("icosahedron", None), ("d4_roots", None), ("e8_roots", None),
)


def test_every_report_keeps_its_bits():
    # every certificate of the harness in both variants, on the catalog as
    # l_2 codes and on seeded random l_p codes: the digest pins the bits of
    # every report, so per-pair work may move but not change a result. The
    # LP certificates come from a file, so the digest pins the checker
    # alone; test_one_round_certificates_keep_their_bytes pins the LP
    rng = np.random.default_rng(20240803)
    pool = [
        codes.euclidean_to_functional(codes.generate(family, dim=dim))
        for family, dim in CATALOG_CODES
    ]
    for i in range(30):
        pool.append(codes.random_functional_code(
            rng, (1.5, 2.0, 3.0)[i % 3], int(rng.integers(2, 7)), int(rng.integers(2, 9))
        ))
    catalog = stored_harness_catalog()
    lines = [
        report_line(functional_pfender_check(code, phi, c, variant=variant))
        for code in pool
        for _, phi, c, _ in catalog
        for variant in ("interval", "finite_set")
    ]
    assert len(lines) == 41 * 27 * 2
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b761858f6c202d5570c48fed06230898139101cf0a0eb8fe3eaf549aaea9cbaf"


# the certificate cases of the kissing_lp and lp_stress benchmark workloads
BENCHMARK_CERTIFICATES = [
    (3, 0.5, 10), (4, 0.5, 10), (8, 0.5, 6), (24, 0.5, 10), (24, 0.5, 20),
    (32, 0.5, 20), (16, 0.7, 16), (24, 0.7, 30), (48, 0.5, 30), (32, 0.5, 30),
]


def scan_margin(phi, c, cos_theta):
    """The margin by a full scan: the maximum of the c-shifted phi on
    [-1, cos_theta], with the critical points of phi' found on that
    interval itself."""
    coeffs = np.array(phi.coeffs)
    coeffs[0] += c
    shifted = PhiSpec(phi.basis, coeffs, phi.dim)
    samples = shifted(chebyshev_points(-1.0, cos_theta, len(coeffs)))
    candidates = np.concatenate(
        ([-1.0, cos_theta], critical_points(samples, -1.0, cos_theta))
    )
    values = shifted(candidates)
    best = int(np.argmax(values))
    return float(values[best]), float(candidates[best])


def assert_margins_agree(phi, c, cos_theta):
    margin, location = interval_margin(phi, c, cos_theta)
    reference, _ = scan_margin(phi, c, cos_theta)
    # the sum of |coefficients| and c; P(1) for a certificate (P - a_0, a_0)
    scale = math.fsum(np.abs(phi.coeffs).tolist()) + abs(c)
    assert abs(margin - reference) <= 1e-14 * max(1.0, scale)
    assert (margin <= COND_TOL) == (reference <= COND_TOL)
    assert -1.0 <= location <= cos_theta


def reference_margin(phi, c, cos_theta):
    """The margin of a Gegenbauer phi by direct evaluation: phi + c at -1,
    cos_theta and the critical points in (-1, cos_theta), in that order,
    one basis_values call over all of them, and the first maximum."""
    crit = np.array(phi._candidates)
    points = np.concatenate(([-1.0, cos_theta], crit[crit < cos_theta]))
    coeffs = phi.coeffs.copy()
    coeffs[0] += c
    values = coeffs @ basis_values(phi.dim, len(coeffs) - 1, points)
    best = int(np.argmax(values))
    return float(values[best]), float(points[best])


def assert_margin_bits(phi, c, angles):
    for ct in angles:
        assert repr(interval_margin(phi, c, ct)) == repr(reference_margin(phi, c, ct)), ct


@pytest.fixture(scope="module")
def degree_10_certificate():
    """(phi, c) = (P - a_0, a_0) of the degree-10 certificate at (3, .5)."""
    return pfender_form(lp_bound(3, 0.5, 10).poly)


class TestCriticalPointsKeptOnPhi:
    """A polynomial phi finds the critical points of phi' once; each
    interval check then evaluates phi + c at -1, cos_theta and the
    critical points between them."""

    def test_roots_are_found_once_for_many_codes(self, monkeypatch, degree_10_certificate):
        phi, c = degree_10_certificate
        calls = []
        real_critical_points = pfender.critical_points

        def spy(samples, lo, hi):
            calls.append((len(samples) - 1, lo, hi))
            return real_critical_points(samples, lo, hi)

        monkeypatch.setattr(pfender, "critical_points", spy)
        results = [
            functional_pfender_check(codes.SphericalCode(3, np.eye(3), ct), phi, c)
            for ct in np.linspace(0.0, 0.5, 20)
        ]
        assert calls == [(10, -1.0, 1.0)]
        assert all(result.applicable for result in results)
        assert len({result.certificate.cos_theta for result in results}) == 20

    def test_one_recursion_per_pair(self, monkeypatch, degree_10_certificate):
        # a fresh phi checked against 50 codes of 3 points: the critical
        # points are found once, the recursion runs once over the code's
        # 9 values per pair, and once each over the 11 samples and the
        # candidate table; the column at cos_theta is one-point arithmetic
        phi, c = degree_10_certificate
        fresh = PhiSpec(phi.basis, phi.coeffs, phi.dim)
        roots, sizes, points = [], [], []
        real_critical_points = pfender.critical_points
        real_recursion = gegenbauer._recursion
        real_point_values = pfender._point_values

        def critical(samples, lo, hi):
            roots.append(len(samples))
            return real_critical_points(samples, lo, hi)

        def recursion(dim, max_degree, x):
            sizes.append(x.size)
            return real_recursion(dim, max_degree, x)

        def point_values(dim, max_degree, x):
            points.append(x)
            return real_point_values(dim, max_degree, x)

        monkeypatch.setattr(pfender, "critical_points", critical)
        monkeypatch.setattr(pfender, "_recursion", recursion)
        monkeypatch.setattr(gegenbauer, "_recursion", recursion)
        monkeypatch.setattr(pfender, "_point_values", point_values)
        angles = np.linspace(0.0, 0.5, 50).tolist()
        for ct in angles:
            functional_pfender_check(codes.SphericalCode(3, np.eye(3), ct), fresh, c)
        crit = fresh._candidates
        assert roots == [11]
        assert sizes == [9, 11, 1 + len(crit)] + [9] * 49
        assert points == angles

    def test_phi_is_evaluated_once_at_its_samples(self, monkeypatch, degree_10_certificate):
        phi, _ = degree_10_certificate
        fresh = PhiSpec(phi.basis, phi.coeffs, phi.dim)
        sizes = []
        real_call = PhiSpec.__call__

        def spy(self, r):
            sizes.append(np.size(r))
            return real_call(self, r)

        monkeypatch.setattr(PhiSpec, "__call__", spy)
        roots = fresh._candidates
        assert fresh._candidates is roots
        # the 11 Chebyshev-Lobatto samples of a degree-10 phi, and no more
        assert sizes == [11]

    def test_coeffs_are_a_read_only_copy(self):
        source = np.array([0.0, 0.5, 0.25])
        phi = PhiSpec("gegenbauer", source, dim=3)
        with pytest.raises(ValueError, match="read-only"):
            phi.coeffs[0] = 1.0
        assert source.flags.writeable
        assert source.tolist() == [0.0, 0.5, 0.25]
        source[1] = 9.0
        assert phi.coeffs.tolist() == [0.0, 0.5, 0.25]

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda phi: pickle.loads(pickle.dumps(phi))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_read_only_and_give_the_same_margins(
        self, clone, degree_10_certificate
    ):
        phi, c = degree_10_certificate
        angles = np.linspace(-1.0, 1.0, 9)
        margins = [interval_margin(phi, c, ct) for ct in angles]
        assert "_candidates" in vars(phi)
        twin = clone(phi)
        assert "_candidates" not in vars(twin)
        assert twin.coeffs is not phi.coeffs
        assert not twin.coeffs.flags.writeable
        assert np.array_equal(twin.coeffs, phi.coeffs)
        assert [interval_margin(twin, c, ct) for ct in angles] == margins

    @pytest.mark.parametrize("case", BENCHMARK_CERTIFICATES, ids=str)
    def test_benchmark_certificates_agree_with_a_full_scan(self, case):
        phi, c = pfender_form(lp_bound(*case).poly)
        assert_margins_agree(phi, c, case[1])

    def test_catalog_phis_agree_with_a_full_scan(self):
        angles = np.random.default_rng(13).uniform(-1.0, 1.0, 50)
        phis = [
            (phi, c) for name, phi, c, _ in harness_catalog()
            if name.startswith(("g1", "lp_d"))
        ]
        assert len(phis) == 12
        for phi, c in phis:
            for ct in angles:
                assert_margins_agree(phi, c, ct)

    def test_random_phis_agree_with_a_full_scan(self, rng):
        # a random phi peaks inside the interval only a few times in a
        # hundred, so this takes many draws
        for _ in range(500):
            coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 26)))
            c, cos_theta = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
            dim = int(rng.integers(2, 33))
            assert_margins_agree(PhiSpec("gegenbauer", coeffs, dim=dim), c, cos_theta)
            assert_margins_agree(PhiSpec("monomial", coeffs[:12]), c, cos_theta)

    def test_low_degrees_match_direct_evaluation_bit_for_bit(self):
        angles = [-1.0, -0.5, -0.0, 0.0, 1.0 / 3.0, 1.0]
        for dim in (2, 3, 8, 24, 1000):
            for coeffs in ([0.0], [-0.3], [0.0, 1.0], [0.2, -0.7]):
                assert_margin_bits(PhiSpec("gegenbauer", coeffs, dim=dim), 0.25, angles)

    def test_angles_at_critical_points_match_direct_evaluation_bit_for_bit(
        self, degree_10_certificate
    ):
        phi, c = degree_10_certificate
        crit = phi._candidates
        assert len(crit) > 0
        assert_margin_bits(phi, c, [-1.0, 0.5, 1.0, *crit])

    def test_random_phis_match_direct_evaluation_bit_for_bit(self, rng):
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 26)))
            phi = PhiSpec("gegenbauer", coeffs, dim=int(rng.integers(2, 33)))
            angles = [-1.0, 1.0, *rng.uniform(-1.0, 1.0, 3), *phi._candidates]
            assert_margin_bits(phi, float(rng.uniform(0.0, 1.0)), angles)

    @pytest.mark.parametrize("cos_theta", [-1.0000001, 1.0000001, math.nan])
    def test_angle_outside_the_interval_raises(self, cos_theta):
        for phi in (g1(3), shifted_square(3), PhiSpec("table", [-1.0, 0.0, 1.0])):
            with pytest.raises(ValueError, match=r"cos_theta must lie in \[-1, 1\]"):
                interval_margin(phi, 0.5, cos_theta)


class TestSerialization:
    def test_phi_round_trip(self):
        for phi in (g1(7), shifted_square(3), PhiSpec("table", [-1.0, 0.2, 0.9])):
            back = phi_from_json_dict(json.loads(jsonutil.dumps(phi_to_json_dict(phi))))
            assert back.basis == phi.basis
            assert back.dim == phi.dim
            assert np.array_equal(back.coeffs, phi.coeffs)

    def test_certificate_round_trip(self):
        cert = pfender_bound(g1(5), 0.2, -0.2)
        data = certificate_to_json_dict(cert)
        assert list(data.keys()) == [
            "kind",
            "variant",
            "phi",
            "c",
            "cos_theta",
            "bound_real",
            "bound_int",
        ]
        back = certificate_from_json_dict(json.loads(jsonutil.dumps(data)))
        assert back.c == cert.c
        assert back.cos_theta == cert.cos_theta
        assert back.bound_real == cert.bound_real
        assert back.variant == "interval"

    def test_finite_set_variant_round_trip(self):
        code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=3))
        result = functional_pfender_check(
            code, shifted_square(3), 1.0 / 3.0, variant="finite_set"
        )
        data = certificate_to_json_dict(result.certificate)
        assert data["variant"] == "finite_set"
        back = certificate_from_json_dict(data)
        assert back.variant == "finite_set"

    @pytest.mark.parametrize("value", [3.7, 3.0, "3", False])
    def test_phi_dim_takes_json_integers_only(self, value):
        data = phi_to_json_dict(g1(3))
        data["dim"] = value
        message = f"^dim must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            phi_from_json_dict(data)

    @pytest.mark.parametrize("value", [4.9, 4.0])
    def test_certificate_bound_int_takes_json_integers_only(self, value):
        data = certificate_to_json_dict(pfender_bound(g1(5), 0.2, -0.2))
        data["bound_int"] = value
        message = f"^bound_int must be an integer, got {value}$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict(data)


    @pytest.mark.parametrize("value", [[1.0, 2.0], "phi", None])
    def test_phi_must_be_an_object(self, value):
        name = type(value).__name__
        with pytest.raises(ValueError, match=f"^phi must be a JSON object, got {name}$"):
            phi_from_json_dict(value)
        data = certificate_to_json_dict(pfender_bound(g1(5), 0.2, -0.2))
        data["phi"] = value
        with pytest.raises(ValueError, match=f"^phi must be a JSON object, got {name}$"):
            certificate_from_json_dict(data)

    def test_certificate_must_be_an_object(self):
        message = "^pfender certificate must be a JSON object, got list$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict([1, 2])


class TestStructuralSoundness:
    def test_nonnegative_expansion_double_sums(self, rng):
        # structural phi against 100 random spherical codes per dimension
        phi_coeffs = np.array([0.1, 0.3, 0.0, 0.6])
        for _ in range(100):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(2, 21))
            phi = PhiSpec("gegenbauer", phi_coeffs, dim=d)
            vecs = rng.normal(size=(n, d))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            gram = np.clip(vecs @ vecs.T, -1.0, 1.0)
            assert double_sum(phi, gram) >= -1e-8 * n * n


@given(st.floats(min_value=0.01, max_value=10.0), st.integers(min_value=2, max_value=30))
def test_scale_invariance_property(lam, d):
    base = pfender_bound(g1(d), 1.0 / d, -1.0 / d)
    scaled = pfender_bound(
        PhiSpec("gegenbauer", [0.0, lam], dim=d), lam / d, -1.0 / d
    )
    assert scaled.bound_real == pytest.approx(base.bound_real, rel=1e-10)
    assert scaled.verification.passed == base.verification.passed


@given(
    st.floats(min_value=-1.0, max_value=0.9),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_special_case_clause_property(phi_at_1, c):
    # whenever phi(1) + c <= 1, the integer bound also obeys n <= 1/c
    phi = PhiSpec("table", [-c - 1.0, (phi_at_1 - c - 1.0) / 2.0, phi_at_1])
    cert = pfender_bound(phi, c, -1.0)
    if cert.verification.special_case_le_one:
        assert cert.bound_int <= math.floor(1.0 / c + 1e-9)
