"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from codebounds import codes, jsonutil
from codebounds.dgs_bound import bound_table, lp_bound, verify_certificate
from codebounds.gegenbauer import (
    GegenbauerPoly,
    basis_values,
    expand_in_basis,
    gegenbauer_eval,
    monomial_table,
    quadrature_rule,
    weighted_inner_product,
)
from codebounds.pfender import PhiSpec, functional_pfender_check, pfender_bound

SEED = 20240803
_CERT_CACHE = {}


def cached_lp_bound(d, cos_theta, degree):
    key = (d, cos_theta, degree)
    if key not in _CERT_CACHE:
        _CERT_CACHE[key] = lp_bound(d, cos_theta, degree)
    return _CERT_CACHE[key]


def report(number, ok, detail, elapsed=None):
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_gegenbauer_suite():
    t0 = time.time()
    worst_norm = 0.0
    for dim in range(2, 33):
        at_one = basis_values(dim, 20, np.array([1.0]))
        worst_norm = max(worst_norm, float(np.max(np.abs(at_one - 1.0))))

    worst_orth = 0.0
    for dim in range(3, 25):
        x, w = quadrature_rule(dim, 64)
        table = basis_values(dim, 20, x)
        norms = [math.fsum((table[k] * table[k] * w).tolist()) for k in range(21)]
        for j in range(21):
            for k in range(j + 1, 21):
                ip = math.fsum((table[j] * table[k] * w).tolist())
                worst_orth = max(worst_orth, abs(ip) / math.sqrt(norms[j] * norms[k]))

    rng = np.random.default_rng(SEED)
    worst_agree = 0.0
    tables = {}
    for _ in range(1000):
        dim = int(rng.integers(2, 33))
        k = int(rng.integers(0, 21))
        r = float(rng.uniform(-1.0, 1.0))
        if dim not in tables:
            tables[dim] = monomial_table(dim, 20)
        table_value = np.polynomial.polynomial.polyval(r, tables[dim][:, k])
        delta = abs(table_value - gegenbauer_eval(dim, k, r))
        worst_agree = max(worst_agree, float(delta))
    elapsed = time.time() - t0
    ok = worst_norm <= 1e-12 and worst_orth <= 1e-8 and worst_agree <= 1e-10
    report(
        1,
        ok and elapsed < 60.0,
        f"normalization {worst_norm:.2e} <= 1e-12, orthogonality {worst_orth:.2e} "
        f"<= 1e-8, recursion/table {worst_agree:.2e} <= 1e-10",
        elapsed,
    )


def test_criterion_2_kissing_d8(tmp_path):
    t0 = time.time()
    out_file = tmp_path / "d8.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "codebounds", "bound", "lp",
            "--dim", "8", "--cos-theta", "0.5", "--degree", "6",
            "--out", str(out_file),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out_file.read_text())
    bound_real = data["bound_real"]
    in_window = 240.0 - 1e-6 <= bound_real <= 240.001
    # cross-check: the classical degree-6 polynomial through the quadrature
    # projection oracle must reproduce P(1)/a_0 = 240
    p = np.array([1.0])
    for root, mult in [(-1.0, 1), (-0.5, 2), (0.0, 2), (0.5, 1)]:
        for _ in range(mult):
            p = np.convolve(p, [-root, 1.0])
    g0 = GegenbauerPoly(8, [1.0])
    a0 = weighted_inner_product(p, g0, 8) / weighted_inner_product(g0, g0, 8)
    p_at_1 = float(np.polynomial.polynomial.polyval(1.0, p))
    classical_ratio = p_at_1 / a0
    elapsed = time.time() - t0
    ok = (
        in_window
        and data["bound_int"] == 240
        and abs(classical_ratio - 240.0) <= 1e-6
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"bound_real={bound_real!r}, bound_int={data['bound_int']}, "
        f"classical P(1)/a_0={classical_ratio!r}",
        elapsed,
    )


def test_criterion_3_kissing_d3_d4():
    t0 = time.time()
    cert3 = cached_lp_bound(3, 0.5, 10)
    elapsed3 = time.time() - t0
    t0 = time.time()
    cert4 = cached_lp_bound(4, 0.5, 10)
    elapsed4 = time.time() - t0
    # regression values frozen after the first verified run
    ok = (
        cert3.bound_real >= 12.0
        and cert4.bound_real >= 24.0
        and abs(cert3.bound_real - 13.158330866785821) <= 5e-3
        and abs(cert4.bound_real - 25.558461854288428) <= 5e-3
        and elapsed3 < 60.0
        and elapsed4 < 60.0
    )
    report(
        3,
        ok,
        f"d=3: {cert3.bound_real!r} (>=12, ~13.158), "
        f"d=4: {cert4.bound_real!r} (>=24, ~25.558)",
        elapsed3 + elapsed4,
    )


def test_criterion_4_kissing_d24():
    t0 = time.time()
    cert = cached_lp_bound(24, 0.5, 10)
    elapsed = time.time() - t0
    ok = (
        cert.bound_real >= 196560.0
        and cert.bound_int == 196560
        and cert.verification.passed
        and elapsed < 300.0
    )
    report(
        4,
        ok,
        f"bound_real={cert.bound_real!r}, bound_int={cert.bound_int}",
        elapsed,
    )


def test_criterion_5_simplex_tightness():
    t0 = time.time()
    worst_bound_err = 0.0
    worst_slack = 0.0
    for d in range(2, 51):
        phi = PhiSpec("gegenbauer", [0.0, 1.0], dim=d)
        cert = pfender_bound(phi, 1.0 / d, -1.0 / d)
        assert cert.verification.passed
        worst_bound_err = max(worst_bound_err, abs(cert.bound_real - (d + 1.0)))
        simplex = codes.generate("simplex", dim=d)
        assert simplex.n == d + 1
        assert codes.verify(simplex).valid
        result = functional_pfender_check(
            codes.euclidean_to_functional(simplex), phi, 1.0 / d, variant="interval"
        )
        assert result.applicable
        worst_slack = max(worst_slack, abs(result.slack))
    elapsed = time.time() - t0
    ok = worst_bound_err <= 1e-12 and worst_slack <= 1e-9
    report(
        5,
        ok,
        f"max |bound - (d+1)| = {worst_bound_err:.2e} <= 1e-12, "
        f"max |slack| = {worst_slack:.2e} over d=2..50",
        elapsed,
    )


def _certificate_catalog():
    catalog = []
    for d in range(2, 11):
        catalog.append(
            ("g1", PhiSpec("gegenbauer", [0.0, 1.0], dim=d), 1.0 / d, "interval")
        )
    for d in range(2, 17):
        catalog.append(
            (
                "sq",
                PhiSpec("monomial", [-1.0 / d, 0.0, 1.0]),
                1.0 / d,
                "finite_set",
            )
        )
    # tabulated phi(r) = r with simplex-type constants
    nodes = np.linspace(-1.0, 1.0, 41)
    for d in (3, 5):
        catalog.append(("table", PhiSpec("table", nodes.copy()), 1.0 / d, "interval"))
    # LP-bound polynomials recast as structural certificates: phi = P - 1, c = 1
    for d, degree in ((3, 10), (4, 10), (8, 6)):
        cert = cached_lp_bound(d, 0.5, degree)
        coeffs = cert.poly.coeffs.copy()
        coeffs[0] = 0.0
        catalog.append(
            ("dgs", PhiSpec("gegenbauer", coeffs, dim=d), 1.0, "interval")
        )
    return catalog


def test_criterion_6_consistency_harness():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    pool = []
    for family, dim in (
        ("simplex", 3),
        ("simplex", 5),
        ("simplex", 8),
        ("orthonormal", 4),
        ("orthonormal", 9),
        ("orthonormal", 16),
        ("cross_polytope", 3),
        ("cross_polytope", 8),
        ("icosahedron", None),
        ("d4_roots", None),
        ("e8_roots", None),
    ):
        pool.append(codes.euclidean_to_functional(codes.generate(family, dim=dim)))
    for i in range(500):
        p = (1.5, 2.0, 3.0)[i % 3]
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        pool.append(codes.random_functional_code(rng, p, dim, n))

    catalog = _certificate_catalog()
    applicable = 0
    checked = 0
    worst_margin = -math.inf
    for code in pool:
        for _, phi, c, variant in catalog:
            checked += 1
            result = functional_pfender_check(code, phi, c, variant=variant)
            if result.applicable:
                applicable += 1
                worst_margin = max(worst_margin, result.n - result.certificate.bound_real)
    elapsed = time.time() - t0
    # any theorem violation would have raised TheoremViolationError above
    ok = applicable >= 30 and worst_margin <= 1e-9
    report(
        6,
        ok,
        f"{checked} (code, certificate) pairs, {applicable} applicable, "
        f"worst n - bound = {worst_margin:.2e} <= 1e-9, zero violations",
        elapsed,
    )


def test_criterion_7_riesz_norming():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        f = codes.norming_functional(x, 2.0)
        worst = max(worst, float(np.max(np.abs(f - x))))
    elapsed = time.time() - t0
    report(
        7,
        worst <= 1e-12,
        f"max componentwise |f - x| = {worst:.2e} <= 1e-12 over 1000 vectors",
        elapsed,
    )


def test_criterion_8_orthonormal_finite_set():
    t0 = time.time()
    worst_bound = 0.0
    worst_slack = 0.0
    for d in range(2, 17):
        code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=d))
        phi = PhiSpec("monomial", [-1.0 / d, 0.0, 1.0])
        result = functional_pfender_check(code, phi, 1.0 / d, variant="finite_set")
        assert result.applicable
        worst_bound = max(worst_bound, abs(result.certificate.bound_real - d))
        worst_slack = max(worst_slack, abs(result.slack))
    elapsed = time.time() - t0
    ok = worst_bound <= 1e-9 and worst_slack <= 1e-9
    report(
        8,
        ok,
        f"max |bound - d| = {worst_bound:.2e}, max |slack| = {worst_slack:.2e} "
        "for d = 2..16",
        elapsed,
    )


def test_criterion_9_lp_oracle_and_mutations():
    from lp_helpers import enumerate_vertices, random_covering_lp

    from codebounds.linprog import solve_lp

    t0 = time.time()
    rng = np.random.default_rng(SEED)
    oracle_worst = 0.0
    for _ in range(100):
        lp, oracle_inputs = random_covering_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        oracle = enumerate_vertices(*oracle_inputs)
        oracle_worst = max(oracle_worst, abs(sol.objective_value - oracle))

    emitted = [
        cached_lp_bound(3, 0.5, 10),
        cached_lp_bound(4, 0.5, 10),
        cached_lp_bound(8, 0.5, 6),
        cached_lp_bound(24, 0.5, 10),
    ]
    emitted += [
        row.certificate
        for row in bound_table(3, 0.5, [6, 8])
        if row.certificate is not None
    ]
    reverified = sum(1 for cert in emitted if verify_certificate(cert).passed)

    mutations_rejected = 0
    mutations_total = 0
    for cert in emitted:
        negated = cert.poly.coeffs.copy()
        negated[1] = -abs(negated[1]) - 0.1
        mutant = type(cert)(
            cos_theta=cert.cos_theta,
            poly=GegenbauerPoly(cert.poly.dim, negated),
            bound_real=cert.bound_real,
            bound_int=cert.bound_int,
        )
        mutations_total += 1
        if not verify_certificate(mutant).passed:
            mutations_rejected += 1

        shifted = cert.poly.coeffs.copy()
        shifted[0] += 0.5  # pushes P above zero on the interval
        mutant = type(cert)(
            cos_theta=cert.cos_theta,
            poly=GegenbauerPoly(cert.poly.dim, shifted),
            bound_real=cert.bound_real,
            bound_int=cert.bound_int,
        )
        mutations_total += 1
        if not verify_certificate(mutant).passed:
            mutations_rejected += 1
    elapsed = time.time() - t0
    ok = (
        oracle_worst <= 1e-7
        and reverified == len(emitted)
        and mutations_rejected == mutations_total
    )
    report(
        9,
        ok,
        f"oracle gap {oracle_worst:.2e} <= 1e-7 on 100 LPs, "
        f"{reverified}/{len(emitted)} certificates re-verified, "
        f"{mutations_rejected}/{mutations_total} mutations rejected",
        elapsed,
    )
