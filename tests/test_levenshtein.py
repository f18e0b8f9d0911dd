"""lp_bound against Levenshtein's bound L, the exact LP optimum at degree m(s).

Every sound certificate at a degree <= m(s) lies at or above L, and the LP
optimum at a degree >= m(s) lies at or below it, so a certificate there
should too, up to its final shift. The strict xfails are the inputs known
to miss, each with its cause; removing the mark is how a fix shows.
"""

from fractions import Fraction

import numpy as np
import pytest

from codebounds.dgs_bound import lp_bound
from codebounds.errors import NoCertificateError
from codebounds.exact import (
    gegenbauer_from_monomial,
    monomial_from_roots,
    ratios_from_roots,
    weighted_mean,
)
from codebounds.gegenbauer import MAX_TABLE_DEGREE, basis_values
from codebounds.levenshtein import (
    bdb_test,
    levenshtein,
    levenshtein_degree,
    levenshtein_polynomial,
)


ANCHORS = [
    (8, 0.5, 240.0),
    (24, 0.5, 196560.0),
    (3, 0.5, 93 / 7),
    (4, 0.5, 26.0),
    (2, 0.5, 6.0),
    (96, 0.2794, 1.51133498e8),
]


@pytest.mark.parametrize("dim, s, bound", ANCHORS)
def test_anchors(dim, s, bound):
    _, value = levenshtein(dim, s)
    assert value == pytest.approx(bound, rel=1e-9 if bound < 1e6 else 1e-8)


def f_m_roots(dim, s):
    """f_m's roots: s, -1 when eps = 1, and levenshtein's float zeros, each
    twice."""
    _, eps, zeros = levenshtein_polynomial(dim, s)
    return [s, *[-1.0] * eps, *[float(z) for z in zeros for _ in range(2)]]


def exact_f_m(dim, s):
    """f_m's ascending monomial coefficients as Fractions, multiplied out
    exactly from levenshtein's own float zeros."""
    return monomial_from_roots(f_m_roots(dim, s))


@pytest.mark.parametrize(
    "dim, s",
    [(dim, s) for dim, s, _ in ANCHORS]
    + [(1000, 0.1), (121, 0.579), (171, 0.4871), (41, 0.781), (49, 0.7447)],
)
def test_exact_moments_agree_with_quadrature(dim, s):
    # the independent oracle: f_m at the same zeros in floats, and a_0 its
    # mean under scipy's Gauss-Jacobi rule, exact at degree m
    from scipy.special import roots_jacobi

    m, value = levenshtein(dim, s)
    roots = np.array(f_m_roots(dim, s))
    points, weights = roots_jacobi(m // 2 + 1, (dim - 3) / 2, (dim - 3) / 2)
    f = np.prod(points[:, None] - roots, axis=1)
    quadrature = np.prod(1.0 - roots) * weights.sum() / (weights @ f)
    assert value == pytest.approx(quadrature, rel=1e-12)


@pytest.mark.parametrize(
    "dim, s",
    [(8, 0.5), (24, 0.5), (3, 0.5), (96, 0.2794), (1000, 0.1), (16, 0.7),
     (121, 0.579), (41, 0.781), (49, 0.7447)],
)
def test_the_certified_coefficients_keep_l(dim, s):
    # the a_k / a_0 that Levenshtein's path certifies are the exact ratios,
    # correctly rounded, so their sum is f_m(1) / a_0 = L; E is the exact
    # sum of their rounding errors
    coeffs, error = ratios_from_roots(dim, f_m_roots(dim, s))
    exact = gegenbauer_from_monomial(dim, exact_f_m(dim, s))
    assert exact[0] == weighted_mean(dim, exact_f_m(dim, s))
    ratios = [a / exact[0] for a in exact]
    assert coeffs == [float(r) for r in ratios]
    assert error == sum(abs(Fraction(f) - r) for f, r in zip(coeffs, ratios))
    assert coeffs[0] == 1.0
    # the exact sum is f_m(1) / a_0, the L that levenshtein rounds once
    assert float(sum(ratios)) == levenshtein(dim, s)[1]


@pytest.mark.parametrize(
    "dim, s, degree", [(8, 0.5, 6), (24, 0.5, 20), (16, 0.7, 16), (13, 0.8046, 22)]
)
def test_lp_bound_certifies_the_rounded_exact_ratios(dim, s, degree):
    # Levenshtein's path: the certificate lowers a_0 alone, so a_1..a_m are
    # f_m's exact a_k / a_0 bit for bit
    cert = lp_bound(dim, s, degree)
    assert cert.verification.messages[-1].startswith("Levenshtein's f_")
    exact = gegenbauer_from_monomial(dim, exact_f_m(dim, s))
    assert cert.phi.coeffs[1:].tolist() == [float(a / exact[0]) for a in exact[1:]]


def jacobi_matrix(a, b, size):
    """The symmetric Jacobi matrix of the orthonormal P_j^(a, b), j < size."""
    j = np.arange(size, dtype=float)
    total = 2 * j + a + b
    diagonal = np.divide(
        b * b - a * a,
        total * (total + 2),
        out=np.full(size, (b - a) / (a + b + 2)),
        where=total != 0,
    )
    j, total = j[1:], total[1:]
    off = np.sqrt(
        4 * j * (j + a) * (j + b) * (j + a + b)
        / (total**2 * (total + 1) * (total - 1))
    )
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def eigenvalue_degree(dim, s):
    """m(s) from the interval ends themselves: the largest zeros of
    P_k^(alpha+1, alpha) and P_k^(alpha+1, alpha+1), as eigenvalues of their
    Jacobi matrices; None past MAX_TABLE_DEGREE."""
    alpha = (dim - 3) / 2
    for k in range(1, MAX_TABLE_DEGREE // 2 + 1):
        for eps in (0, 1):
            end = np.linalg.eigvalsh(jacobi_matrix(alpha + 1, alpha + eps, k))[-1]
            if s < end:
                return 2 * k - 1 + eps
    return None


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 24, 57, 200])
def test_the_sign_count_finds_the_eigenvalue_degree(dim):
    # off the interval ends, where the two can only differ by rounding
    for s in np.linspace(-0.9871, 0.9913, 61).tolist():
        assert levenshtein_degree(dim, s) == eigenvalue_degree(dim, s), s
        for cap in (1, 6, 17):
            expected = eigenvalue_degree(dim, s)
            expected = expected if expected is not None and expected <= cap else None
            assert levenshtein_degree(dim, s, cap) == expected


def test_closed_interval_ends_take_the_lower_degree():
    # s = 1/2 ends I_6 at d = 8 and I_10 at d = 24, and the monic recurrence
    # reads exactly 0 there: E8's and the Leech lattice's polynomials
    assert levenshtein_degree(8, 0.5) == 6
    assert levenshtein_degree(24, 0.5) == 10
    assert levenshtein(8, 0.5) == (6, 240.0)
    assert levenshtein(24, 0.5) == (10, 196560.0)


def test_simplex_and_cap():
    # I_1 ends at s = -1/d, and L_1 = 1 - 1/s: the regular simplex
    assert levenshtein(5, -0.2 - 1e-9) == (1, pytest.approx(6.0, rel=1e-8))
    assert levenshtein(96, 0.2794)[0] == 11
    assert levenshtein(3, 0.999) is None  # m(s) > 40


@pytest.mark.parametrize(
    "dim", [10**155, 10**200, 10**300, int(1.7e308)],
    ids=["1e155", "1e200", "1e300", "1.7e308"],
)
def test_a_huge_dimension_ends_in_no_certificate(dim):
    # the Jacobi entries' squared total overflowed once dim passed 1.35e154
    for degree in (3, 5, 12, 40):
        assert levenshtein_degree(dim, 0.5, degree) is None
        with pytest.raises(NoCertificateError, match="LP at .* is infeasible"):
            lp_bound(dim, 0.5, degree)
    assert levenshtein(dim, 0.5) is None


# Above L by the shift's noise term 3e-15 P(1), not by any violation.
NOISE = "the final shift is the noise term 3e-15 P(1)"
# Levenshtein's f_m, above L by exactly its c = 1 - E: E = sum |f_k - r_k|,
# the exact rounding error of its float64 coefficients f_k.
ROUNDING = "f_m pays its rounding error E"
# No certificate, although f_m is one: at P(1) >= 1e14 float64 coefficients
# cannot carry one, and the violation plus the noise term needs a shift >= 1.
FLOAT64 = "P(1) >= 1e14: the violation plus the noise term needs a shift >= 1"
# L = 2.5994e14, and every Gegenbauer coefficient of f_11 is positive in
# exact arithmetic. Levenshtein's path certifies f_11 itself, and its
# rounding error E = 0.0143 alone costs the factor.
F11 = ("P(1) ~ 2.6e14: f_11's rounding error E = 0.0143 lowers c to 1 - E, "
       "x1.0145 = 1 / (1 - E)")
# No certificate: the LP at degree m(s) is called infeasible, and it is not,
# since f_m is a certificate (its exact expansion is tested below).
# Levenshtein's path declines: bdb_test finds some Q_j L with j <= m(s)
# outside its rounding bound, although f_m's correctly rounded a_k / a_0
# sum to L within 3e-13 (test_the_certified_coefficients_keep_l).
FALSE_INFEASIBLE = ("P(1) >= 8e23: the LP is called infeasible, but f_m from "
                    "its own float zeros is a certificate")


def miss(case, reason, raises):
    return pytest.param(
        *case, marks=pytest.mark.xfail(reason=reason, raises=raises, strict=True)
    )


ORACLE_CASES = [
    # below m(s): a sound certificate cannot beat L
    (24, 0.5, 10),
    (19, 0.4844, 8),
    (25, 0.6938, 17),
    (9, 0.0733, 2),
    # at or above m(s): within 1e-6 of L, or below it
    (8, 0.5, 6),
    (24, 0.5, 20),
    (16, 0.7, 16),
    (3, 0.5, 10),
    (32, 0.5, 20),
    (63, 0.4643, 23),
    (55, 0.403, 29),
    (23, 0.3843, 25),
    (44, 0.3829, 32),
    (96, 0.2794, 35),
    (38, 0.4607, 35),
    # Levenshtein's f_11, above L by its E alone: x1.000000008
    (87, 0.3194, 20),
    # Levenshtein's path: 6.0000000005 at L = 6, where the rounds' shift
    # paid for a violation
    (2, 0.5, 40),
    # 17 strict xfails: 3 ROUNDING, 3 NOISE, 5 FLOAT64, 2 F11,
    # 2 FALSE_INFEASIBLE and 2 with their own cause
    # these three are Levenshtein's f_m, above L by E alone: E = 9.8e-5,
    # 8.7e-6 and 2.6e-6
    miss((197, 0.2559, 30), ROUNDING, AssertionError),
    miss((88, 0.4013, 37), ROUNDING, AssertionError),
    miss((114, 0.33, 17), ROUNDING, AssertionError),
    miss((36, 0.7024, 28), NOISE, AssertionError),
    miss((177, 0.2468, 39), NOISE, AssertionError),
    miss((50, 0.5458, 19), NOISE, AssertionError),
    miss((50, 0.6738, 30), "P(1) ~ 1.2e14: the noise term's shift of 0.35 "
         "inflates a polished P(1) within 1e-12 of L 1.5-fold", AssertionError),
    miss((63, 0.6472, 37), FLOAT64, NoCertificateError),
    miss((114, 0.4156, 39), "P(1) ~ 2.4e14: the noise term's shift of 0.72 "
         "inflates a polished P(1) within 1.3e-4 of L 3.5-fold", AssertionError),
    miss((148, 0.3941, 24), FLOAT64, NoCertificateError),
    # L = 5.0e16: the noise term alone needs a shift >= 1
    miss((167, 0.3664, 36), FLOAT64, NoCertificateError),
    miss((1000, 0.1, 11), F11, AssertionError),
    miss((1000, 0.1, 40), F11, AssertionError),
    # at m(s), where bdb_test declines f_m: L = 8.7757e23 and 1.1284e25,
    # then 2.9e15 and 3.1e16
    miss((121, 0.579, 39), FALSE_INFEASIBLE, NoCertificateError),
    miss((171, 0.4871, 36), FALSE_INFEASIBLE, NoCertificateError),
    miss((41, 0.781, 39), FLOAT64, NoCertificateError),
    miss((49, 0.7447, 37), FLOAT64, NoCertificateError),
]


@pytest.mark.parametrize("dim, s, degree", ORACLE_CASES)
def test_lp_bound_against_levenshtein(dim, s, degree):
    m, value = levenshtein(dim, s)
    bound = lp_bound(dim, s, degree).bound_real
    if degree <= m:
        assert bound >= value * (1.0 - 1e-12)
    if degree >= m:
        assert bound <= value * (1.0 + 1e-6)


@pytest.mark.parametrize("dim, s", [(121, 0.579), (171, 0.4871)])
def test_f_m_is_a_certificate_where_the_lp_is_called_infeasible(dim, s):
    # f_m = (t - s) (t + 1)^eps prod_z (t - z)^2 is <= 0 on [-1, s] by its
    # product form, for any float zeros z; its exact coefficients are all
    # >= a_0 > 0, so the degree-m(s) LP has a feasible point
    coeffs = gegenbauer_from_monomial(dim, exact_f_m(dim, s))
    assert len(coeffs) == levenshtein_degree(dim, s) + 1
    assert min(coeffs) == coeffs[0] > 0


def bdb_values(dim, s, degree):
    """(m(s), Q_j L for j = 1..degree) by numpy: the nodes of f_m, the
    weights rho'_i from sum_i rho'_i G_j(alpha_i) = -1 for j = 1..N, and
    1 + sum_i rho'_i G_j(alpha_i)."""
    m, eps, zeros = levenshtein_polynomial(dim, s)
    nodes = np.concatenate(([s], zeros, [-1.0] * eps))
    values = basis_values(dim, degree, nodes)[1:]
    weights = np.linalg.solve(values[: len(nodes)], np.full(len(nodes), -1.0))
    assert weights.min() > 0.0
    return m, 1.0 + values @ weights


def test_a_negative_test_function_leaves_room_below_l():
    # BDB against the LP: on a seeded sample of the sweep's domain, each
    # input at a degree >= m(s) that Levenshtein's path declines because some
    # Q_j L with j > m(s) is clearly negative certifies below L
    rng = np.random.default_rng(5)
    declined = []
    for _ in range(150):
        dim = int(rng.integers(2, 65))
        s = round(float(rng.uniform(-1.0, 0.9)), 4)
        degree = int(rng.integers(1, 41))
        polynomial = levenshtein_polynomial(dim, s, degree)
        if polynomial is None or bdb_test(dim, s, degree, polynomial) is not None:
            continue
        m, q = bdb_values(dim, s, degree)
        if degree > m and q[m:].min() < -1e-3:
            declined.append((dim, s, degree))
            assert lp_bound(dim, s, degree).bound_real < levenshtein(dim, s)[1]
    assert len(declined) >= 10
