"""lp_bound against Levenshtein's bound L, the exact LP optimum at degree m(s).

Every sound certificate at a degree <= m(s) lies at or above L, and the LP
optimum at a degree >= m(s) lies at or below it, so a certificate there
should too, up to its final shift. The strict xfails are the inputs known
to miss, each with its cause; removing the mark is how a fix shows.
"""

from fractions import Fraction

import pytest
from levenshtein import levenshtein, levenshtein_polynomial

from codebounds.dgs_bound import lp_bound
from codebounds.errors import NoCertificateError


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


def exact_levenshtein(dim, s):
    """f_m(1) / a_0 in exact arithmetic from levenshtein's own float zeros:
    f_m's monomial coefficients c_j as Fractions, and a_0 = sum_j c_j E[t^j]
    from the weight's exact moments E[t^(2j)] = prod_{i<j} (2i+1)/(d+2i)
    (the odd ones vanish)."""
    _, eps, zeros = levenshtein_polynomial(dim, s)
    roots = [Fraction(s)] + [Fraction(-1)] * eps
    roots += [Fraction(float(z)) for z in zeros for _ in range(2)]
    coeffs = [Fraction(1)]
    for root in roots:
        # times (t - root)
        coeffs = [a - root * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    a_0, moment = Fraction(0), Fraction(1)
    for j in range(0, len(coeffs), 2):
        a_0 += coeffs[j] * moment
        moment *= Fraction(j + 1, dim + j)
    return sum(coeffs) / a_0


@pytest.mark.parametrize(
    "dim, s", [(dim, s) for dim, s, _ in ANCHORS] + [(1000, 0.1)]
)
def test_quadrature_agrees_with_exact_moments(dim, s):
    # the same zeros, so this checks the quadrature's a_0 and the float f(1)
    _, value = levenshtein(dim, s)
    exact = exact_levenshtein(dim, s)
    assert abs(Fraction(value) / exact - 1) <= Fraction(1, 10**12)


def test_simplex_and_cap():
    # I_1 ends at s = -1/d, and L_1 = 1 - 1/s: the regular simplex
    assert levenshtein(5, -0.2 - 1e-9) == (1, pytest.approx(6.0, rel=1e-8))
    assert levenshtein(96, 0.2794)[0] == 11
    assert levenshtein(3, 0.999) is None  # m(s) > 40


# Above L: the rounds stop with a violation that the final shift pays for.
SHIFT = "the rounds end with a violation, and the final shift pays for it"
# Above L by the shift's noise term 3e-15 P(1), not by any violation.
NOISE = "the final shift is the noise term 3e-15 P(1)"
# No certificate, although f_m is one: at P(1) >= 1e14 float64 coefficients
# cannot carry one, and the violation plus the noise term needs a shift >= 1.
FLOAT64 = "P(1) >= 1e14: the violation plus the noise term needs a shift >= 1"
# A claim that nothing re-checks: the dual simplex's ray test (ROADMAP item
# 3, LP-dual witnesses) calls the LP infeasible within milliseconds.
FALSE_INFEASIBLE_F11 = "a false 'LP infeasible': the degree-11 f_m is a certificate"


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
    # 15 strict xfails: 1 SHIFT, 7 NOISE, 2 FLOAT64, 2 FALSE_INFEASIBLE_F11
    # and 3 with their own cause
    miss((2, 0.5, 40), SHIFT, AssertionError),
    miss((197, 0.2559, 30), NOISE, AssertionError),
    miss((88, 0.4013, 37), NOISE, AssertionError),
    miss((114, 0.33, 17), NOISE, AssertionError),
    miss((36, 0.7024, 28), NOISE, AssertionError),
    miss((177, 0.2468, 39), NOISE, AssertionError),
    miss((50, 0.5458, 19), NOISE, AssertionError),
    miss((87, 0.3194, 20), NOISE, AssertionError),
    miss((50, 0.6738, 30), "P(1) ~ 1.2e14: the noise term's shift of 0.35 "
         "inflates a polished P(1) within 1e-12 of L 1.5-fold", AssertionError),
    miss((63, 0.6472, 37), FLOAT64, NoCertificateError),
    miss((114, 0.4156, 39), "P(1) ~ 2.4e14: the noise term's shift of 0.72 "
         "inflates a polished P(1) within 1.3e-4 of L 3.5-fold", AssertionError),
    miss((148, 0.3941, 24), FLOAT64, NoCertificateError),
    miss((167, 0.3664, 36), "a false 'LP infeasible': the degree-21 f_m is a "
         "certificate", NoCertificateError),
    # L = 2.5994e14; every Gegenbauer coefficient of f_11 is positive in
    # exact arithmetic over the float monomial table
    miss((1000, 0.1, 11), FALSE_INFEASIBLE_F11, NoCertificateError),
    miss((1000, 0.1, 40), FALSE_INFEASIBLE_F11, NoCertificateError),
]


@pytest.mark.parametrize("dim, s, degree", ORACLE_CASES)
def test_lp_bound_against_levenshtein(dim, s, degree):
    m, value = levenshtein(dim, s)
    bound = lp_bound(dim, s, degree).bound_real
    if degree <= m:
        assert bound >= value * (1.0 - 1e-12)
    if degree >= m:
        assert bound <= value * (1.0 + 1e-6)
