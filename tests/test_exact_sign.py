"""The exact kernel (``codebounds.exact``) on lp_bound's certificates.

The float verifier accepts a maximum of P up to COND_TOL = 1e-9 on
[-1, cos_theta]. The kernel decides the sign of P for the float64
coefficients that a certificate file stores, in exact arithmetic.
"""

import dataclasses
import json
from fractions import Fraction
from math import prod

import pytest

from codebounds import jsonutil, pfender
from codebounds.dgs_bound import lp_bound
from codebounds.exact import (
    Refuted,
    UndecidedError,
    gegenbauer_from_monomial,
    gegenbauer_table,
    integer_polynomial,
    monomial_from_roots,
    prove_nonpositive,
    unproven,
    weighted_mean,
)

# the kissing_lp and lp_stress certificates of perfbench/workloads.py
BENCHMARK_CASES = [
    (3, 0.5, 10), (4, 0.5, 10), (8, 0.5, 6), (24, 0.5, 10), (24, 0.5, 20),
    (32, 0.5, 20), (16, 0.7, 16), (24, 0.7, 30), (48, 0.5, 30), (32, 0.5, 30),
]
# pool certificates that the kernel once refuted and now proves:
# (22, .4927, 34) was exactly +6.0e-10 at t ~ -0.5111 while its first LP
# started from the all-slack basis. (19, .4844, 8) was +6.6e-10 at
# t ~ 0.1779 and (15, .5745, 35) +8.2e-10 at t ~ 0.0164, unpolished LP
# answers left unshifted because their float maximum plus noise sat inside
# COND_TOL (a skip since removed); each is now polished at round 1, its
# bound 5.9e-10 and 6.4e-10 higher
PROVEN = [(22, 0.4927, 34), (19, 0.4844, 8), (15, 0.5745, 35)]
# pool certificates, and (24, .765, 29), whose LP answer keeps a lone tight
# row, which the Newton polish takes as a double root of its own; the last
# three have round-1 LP answers that a former stop (an inflation of P(1)
# below 1e-4) ended unpolished; polished at round 1, their bounds are 1.2e-6
# to 1.35e-6 lower
NEWLY_POLISHED = [
    (39, 0.7469, 37), (49, 0.5658, 34), (34, 0.6097, 27), (56, 0.4635, 29),
    (45, 0.4736, 36), (34, 0.6135, 28), (32, 0.4907, 38), (24, 0.765, 29),
    (2, 0.6393, 28), (5, 0.504, 27), (3, 0.7961, 13),
]
# pool certificates from Levenshtein's path whose f_m's noise shift once
# inflated L by more than 1e-4, a gate the path had then
NEWLY_LEVENSHTEIN = [
    (51, 0.4552, 24), (55, 0.403, 29), (62, 0.3702, 19), (56, 0.4279, 38),
    (78, 0.3146, 34), (93, 0.2367, 13), (114, 0.33, 17), (48, 0.3716, 31),
    (103, 0.2294, 27), (96, 0.2794, 35), (88, 0.4013, 37), (192, 0.1744, 11),
    (197, 0.2559, 30),
]


def exact_value(d, coeffs, t):
    """P(t) for a rational t, by the three-term recursion in Fractions."""
    g = [Fraction(1), t]
    for k in range(2, len(coeffs)):
        g.append(((2 * k + d - 4) * t * g[k - 1] - (k - 1) * g[k - 2]) / (k + d - 3))
    return sum(Fraction(a) * g_k for a, g_k in zip(coeffs, g))


def stored(case):
    """lp_bound(*case)'s certificate as its file stores it: phi, whose
    a_0 is 0, and c."""
    text = jsonutil.dumps(pfender.certificate_to_json_dict(lp_bound(*case)))
    return pfender.certificate_from_json_dict(json.loads(text))


class TestOracle:
    @pytest.mark.parametrize("d", [2, 3, 8, 24, 199])
    def test_the_integer_table_is_the_gegenbauer_family(self, d):
        T, D = gegenbauer_table(d, 40)
        t = Fraction(-3, 7)
        for k in range(41):
            assert sum(T[k]) == D[k]  # G_k(1) = 1
            value = sum(c * t**j for j, c in enumerate(T[k])) / D[k]
            assert value == exact_value(d, [0.0] * k + [1.0], t)

    def test_the_integer_polynomial_is_p_exactly(self, rng):
        scales = 10.0 ** rng.integers(-30, 5, 13)
        coeffs = (rng.uniform(-2.0, 2.0, 13) * scales).tolist()
        q, scale = integer_polynomial(17, coeffs)
        assert scale > 0
        for t in (Fraction(-1), Fraction(1, 3), Fraction(5, 1024)):
            assert scale * sum(c * t**j for j, c in enumerate(q)) == exact_value(
                17, coeffs, t
            )

    def test_a_touching_square_is_proven(self):
        # -t^2 in dimension 3 is -(2 G_2 + G_0) / 3
        coeffs = [-1.0 / 3.0, 0.0, -2.0 / 3.0]
        assert exact_value(3, coeffs, Fraction(0)) == 0  # the floats cancel
        assert prove_nonpositive(3, coeffs, -1.0, 0.5, [0.0]) is None
        assert prove_nonpositive(3, [0.0, 0.0, 0.0], -1.0, 0.5) is None

    def test_a_bump_between_the_splits_is_refuted_by_bisection(self):
        # 1e-6 - t^2: the ends are negative and only the midpoint 0 is not
        coeffs = [1e-6 - 1.0 / 3.0, 0.0, -2.0 / 3.0]
        found = prove_nonpositive(3, coeffs, -1.0, 1.0)
        assert isinstance(found, Refuted) and found.t == 0
        assert found.value == exact_value(3, coeffs, found.t) > 0
        with pytest.raises(UndecidedError, match="after 0 bisections"):
            prove_nonpositive(3, coeffs, -1.0, 1.0, max_depth=0)

    def test_a_one_point_interval_is_decided_by_its_value(self):
        # 1/2 + t is exactly 0 at -1, and 3/2 + t is 1/2 there
        assert prove_nonpositive(3, [0.5, 1.0], -1.0, -1.0, [-1.0, 0.0]) is None
        found = prove_nonpositive(3, [1.5, 1.0], -1.0, -1.0)
        assert found == Refuted(Fraction(-1), Fraction(1, 2))
        with pytest.raises(ValueError, match="need lo <= hi"):
            prove_nonpositive(3, [0.5, 1.0], 0.5, -1.0)

    @pytest.mark.parametrize("d", [2, 3, 24, 121, 2**52])
    def test_the_expansions_are_exact(self, d):
        roots = [0.5, -1.0, 0.1, 0.1]
        monomial = monomial_from_roots(roots)
        t = Fraction(2, 7)
        product = (t - Fraction(0.5)) * (t + 1) * (t - Fraction(0.1)) ** 2
        assert sum(c * t**j for j, c in enumerate(monomial)) == product
        coeffs = gegenbauer_from_monomial(d, monomial)
        assert exact_value(d, coeffs, t) == product
        T, D = gegenbauer_table(d, 3)
        g_3 = [Fraction(c, D[3]) for c in T[3]]
        assert gegenbauer_from_monomial(d, g_3) == [0, 0, 0, 1]
        # degree 40, against the three-term recursion rather than the table
        roots = [(-0.9) ** i for i in range(40)]
        coeffs = gegenbauer_from_monomial(d, monomial_from_roots(roots))
        t = Fraction(-3, 11)
        assert exact_value(d, coeffs, t) == prod(t - Fraction(r) for r in roots)

    @pytest.mark.parametrize("d", [2, 3, 8, 121, 2**52])
    def test_the_weighted_mean_is_a_0(self, d):
        # G_k is orthogonal to G_0 = 1, so its mean is 0 for k >= 1
        T, D = gegenbauer_table(d, 40)
        assert weighted_mean(d, [Fraction(c, D[0]) for c in T[0]]) == 1
        for k in range(1, 41):
            assert weighted_mean(d, T[k]) == 0, k
        # E[t^2] = 1 / d, E[t^4] = 3 / (d (d + 2)); odd powers and floats
        expected = Fraction(1, d) + Fraction(3, 4 * d * (d + 2))
        assert weighted_mean(d, [0.0, 5.0, 1.0, 0.5, 0.25]) == expected
        assert weighted_mean(d, []) == 0


@pytest.mark.parametrize("case", BENCHMARK_CASES, ids=str)
def test_every_benchmark_certificate_is_proven(case):
    assert unproven(stored(case)) is None


def test_a_certificate_that_is_exactly_0_at_an_end_is_proven():
    # (9, .0733, 2)'s unpolished LP answer as it was once stored, unshifted:
    # its P(-1) is exactly 0, which is not a violation
    d, cos_theta, coeffs = 9, 0.0733, [1.0, 24.508668821627978, 23.508668821627978]
    assert exact_value(d, coeffs, Fraction(-1)) == 0
    phi = pfender.PhiSpec("gegenbauer", [0.0, *coeffs[1:]], dim=d)
    assert unproven(pfender.pfender_bound(phi, coeffs[0], cos_theta)) is None


def test_a_certificate_at_cos_theta_minus_1_is_proven():
    # [-1, -1] is one point, where P must be <= 0; the session check proves
    # lp_bound's own certificate there too
    assert lp_bound(3, -1.0, 2).bound_real == pytest.approx(2.0)
    assert unproven(stored((3, -1.0, 2))) is None


# degree-1 LP answers 1 + a_1 t, a_1 the float nearest -1/s: each was once
# stored unshifted and refuted, its exact P(s) 4.6e-17 to 6.2e-17 above 0; now
# shifted by its noise term, each keeps its bound_int
DEGREE_ONE = {
    (2, -0.21, 1): 5, (3, -0.21, 1): 5, (4, -0.21, 1): 5, (2, -0.2029, 1): 5,
    (4, -0.0699, 1): 15,
}


@pytest.mark.parametrize("case", DEGREE_ONE, ids=str)
def test_a_degree_one_certificate_is_proven(case):
    assert lp_bound(*case).bound_int == DEGREE_ONE[case]
    assert unproven(stored(case)) is None


@pytest.mark.parametrize("case", PROVEN, ids=str)
def test_a_formerly_refuted_pool_certificate_is_proven(case):
    assert unproven(stored(case)) is None


@pytest.mark.parametrize("case", NEWLY_POLISHED, ids=str)
def test_a_newly_polished_pool_certificate_is_proven(case):
    assert unproven(stored(case)) is None


@pytest.mark.parametrize("case", NEWLY_LEVENSHTEIN, ids=str)
def test_a_newly_levenshtein_pool_certificate_is_proven(case):
    assert unproven(stored(case)) is None


class TestUnproven:
    # anchors whose P touches 0 at -1, so that c raised by 1e-9 makes
    # P(-1) exactly positive, by less than COND_TOL
    @pytest.mark.parametrize("case", [(8, 0.5, 6), (24, 0.5, 10), (3, 0.5, 10)], ids=str)
    def test_an_anchor_is_proven_and_its_raised_c_refuted(self, case):
        cert = stored(case)
        assert unproven(cert) is None
        mutant = pfender.pfender_bound(cert.phi, cert.c + 1e-9, cert.cos_theta)
        # the float interval check passes it (ROADMAP item 1)
        assert mutant.verification.passed
        value = exact_value(case[0], [mutant.c, *cert.phi.coeffs[1:]], Fraction(-1))
        assert 0 < value < 1e-9
        assert unproven(mutant) == f"refuted: P(t) = {float(value)!r} > 0 at t = -1.0"

    @pytest.mark.parametrize("case", [(8, 0.5, 6), (24, 0.5, 10), (16, 0.7, 16)], ids=str)
    def test_f_m_unshifted_is_refuted(self, case):
        # Levenshtein's f_m with c = 1, not 1 - E: its float64 coefficients
        # lie above the exact ratios' polynomial somewhere on the interval,
        # so E's shift is what makes it a certificate
        cert = stored(case)
        assert cert.verification.messages[-1].startswith("Levenshtein's f_")
        assert cert.c < 1.0 and unproven(cert) is None
        assert unproven(dataclasses.replace(cert, c=1.0)).startswith("refuted: ")

    def test_c_is_added_to_phis_a_0_exactly(self):
        cert = stored((8, 0.5, 6))
        coeffs = cert.phi.coeffs.copy()
        coeffs[0] = 0.25
        split = pfender.PhiSpec("gegenbauer", coeffs, dim=8)
        assert unproven(pfender.pfender_bound(split, cert.c - 0.25, 0.5)) is None
        # (9, .0733, 2)'s P, exactly 0 at -1, raised by 1e-300 in phi's a_0:
        # 1e-300 + c rounds to c, but the exact P(-1) is 1e-300
        phi = pfender.PhiSpec("gegenbauer", [1e-300, 24.508668821627978, 23.508668821627978], dim=9)
        assert unproven(pfender.pfender_bound(phi, 1.0, 0.0733)) == (
            "refuted: P(t) = 1e-300 > 0 at t = -1.0"
        )

    def test_a_certificate_that_is_not_a_gegenbauer_interval_one_raises(self):
        cert = stored((8, 0.5, 6))
        with pytest.raises(ValueError, match="checked against its code"):
            unproven(dataclasses.replace(cert, variant="finite_set"))
        monomial = pfender.PhiSpec("monomial", [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="monomial phi is not a Gegenbauer"):
            unproven(pfender.pfender_bound(monomial, 1.0, 0.5))
