"""LP bound pipeline: flagship values, verification, mutations, JSON."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from codebounds import cli, dgs_bound, jsonutil, pfender
from codebounds.dgs_bound import bound_table, lp_bound, verify_certificate
from codebounds.errors import LPFailureError, NoCertificateError
from codebounds.exact import prove_nonpositive
from codebounds.gegenbauer import GegenbauerPoly
from codebounds.linprog import LPSolution, solve_lp
from codebounds.pfender import (
    PfenderCertificate,
    PhiSpec,
    certificate_from_json_dict,
    certificate_to_json_dict,
    pfender_form,
)
from codebounds.scanning import chebyshev_points

DATA = Path(__file__).resolve().parent / "data"


# the last verification message of a certificate from lp_bound
ROUNDS_MESSAGE = re.compile(
    r"P\(1\) \S+ inflated by shift \S+ over (\d+) cutting-plane rounds"
)
# the one message of a certificate from Levenshtein's path
LEVENSHTEIN_MESSAGE = re.compile(
    r"Levenshtein's f_(\d+), m\(s\) = (\d+): BDB test min Q_j L over "
    r"m\(s\) < j <= (\d+) is (\S+|none \(degree = m\(s\)\)); L = (\S+) "
    r"inflated by shift (\S+)"
)


@pytest.fixture
def lp_path(monkeypatch):
    """Decline Levenshtein's path, so that lp_bound runs its cutting-plane
    rounds on the inputs where f_m is the degree's optimum."""
    monkeypatch.setattr(dgs_bound, "_levenshtein_path", lambda *args: None)


@pytest.fixture(scope="module")
def cert_d8():
    return lp_bound(8, 0.5, 6)


@pytest.fixture(scope="module")
def cert_d3():
    return lp_bound(3, 0.5, 10)


class TestLPBound:
    def test_kissing_d8(self, cert_d8):
        # a 240-point code exists at this angle, forcing the lower edge
        assert 240.0 - 1e-6 <= cert_d8.bound_real <= 240.001
        assert cert_d8.bound_int == 240
        assert cert_d8.verification.passed

    def test_kissing_d3(self, cert_d3):
        assert 12.0 <= cert_d3.bound_real <= 14.0
        assert cert_d3.bound_real == pytest.approx(13.158, abs=2e-3)

    def test_degree_zero_has_no_certificate(self):
        with pytest.raises(NoCertificateError):
            lp_bound(5, 0.5, 0)

    def test_degree_too_small_infeasible(self):
        # P = 1 + a_1 r cannot be <= 0 at r = 0 <= cos_theta
        with pytest.raises(NoCertificateError):
            lp_bound(3, 0.5, 1)

    def test_simplex_angle_degree_one_exact(self, monkeypatch):
        # the optimum P = 1 + d t is f_1 and the LP answer [1, d] alike, and
        # one shift rule certifies both: the same bits on either path, proven
        # exactly (unshifted, the LP answer was refuted at d = 3 and d = 7)
        cases = {d: lp_bound(d, -1.0 / d, 1) for d in (2, 3, 7, 16)}
        monkeypatch.setattr(dgs_bound, "_levenshtein_path", lambda *args: None)
        for d, f_1 in cases.items():
            cert = lp_bound(d, -1.0 / d, 1)
            assert LEVENSHTEIN_MESSAGE.fullmatch(f_1.verification.messages[-1])
            assert ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
            assert cert.poly.coeffs.tobytes() == f_1.poly.coeffs.tobytes()
            assert cert.bound_real == f_1.bound_real >= d + 1
            assert prove_nonpositive(d, cert.poly.coeffs.tolist(), -1.0, -1.0 / d) is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lp_bound(1, 0.5, 6)
        with pytest.raises(ValueError):
            lp_bound(3, 1.0, 6)
        with pytest.raises(ValueError):
            lp_bound(3, 0.5, 41)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            lp_bound(3, 0.5, -2)
        with pytest.raises(NoCertificateError):
            lp_bound(3, 0.5, 0)
        with pytest.raises(ValueError, match="degree must be an integer"):
            lp_bound(8, 0.5, 6.0)
        with pytest.raises(ValueError, match="degree must be an integer, got True"):
            lp_bound(8, 0.5, True)
        with pytest.raises(ValueError, match="dimension must be an integer"):
            lp_bound(8.0, 0.5, 6)
        # the float recursion would overflow on float(dim)
        with pytest.raises(ValueError, match="^dimension must be at most "):
            lp_bound(10**400, 0.5, 3)
        assert lp_bound(8, 0.5, np.int64(6)).bound_int == 240


class TestFailedLPRound:
    @staticmethod
    def _fail_from_round(monkeypatch, first_failing):
        real_solve = dgs_bound.solve_lp
        calls = []

        def solve(lp, basis=None):
            calls.append(len(lp.b))
            if len(calls) >= first_failing:
                return LPSolution(status="numerical_failure")
            return real_solve(lp, basis)

        monkeypatch.setattr(dgs_bound, "solve_lp", solve)
        return calls

    @pytest.mark.usefixtures("lp_path")
    def test_later_round_failure_certifies_previous_round(self, monkeypatch):
        # unpolished, (8, 0.5, 6) takes 2 rounds when every LP succeeds
        # (polished, it ends at round 1)
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = self._fail_from_round(monkeypatch, 2)
        cert = lp_bound(8, 0.5, 6)
        assert len(calls) == 2
        assert cert.verification.passed
        assert verify_certificate(cert).passed
        assert cert.verification.messages[-1].endswith(
            "over 1 cutting-plane rounds; round 2 LP status 'numerical_failure'"
        )
        assert 240.0 - 1e-6 <= cert.bound_real

    @pytest.mark.usefixtures("lp_path")
    def test_first_round_failure_raises(self, monkeypatch):
        self._fail_from_round(monkeypatch, 1)
        with pytest.raises(LPFailureError, match="numerical_failure"):
            lp_bound(8, 0.5, 6)

    def test_d48_degree30_ends_quickly_with_a_certificate(self):
        # a cold re-solve of round 6 used to miss the residual tolerance; warm
        # started from the previous basis, every round's LP solves, and the
        # cutting planes converge before the round cap
        start = time.perf_counter()
        cert = lp_bound(48, 0.5, 30)
        assert time.perf_counter() - start < 5.0
        assert cert.verification.passed
        assert cert.bound_int >= 4512  # the D48 root system's minimal vectors
        rounds = ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert rounds and int(rounds[1]) < dgs_bound.MAX_ROUNDS
        assert cert.bound_real <= 895755214.43  # round 5's certificate before


class TestRoundStops:
    @pytest.mark.usefixtures("lp_path")
    def test_the_round_cap_certifies_the_last_round(self, monkeypatch):
        # unpolished, (48, .5, 30) runs to MAX_ROUNDS, and round 10's LP
        # answer is certified, although round 6's would give a lower bound
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = TestWarmStartedRounds._record(monkeypatch)
        cert = lp_bound(48, 0.5, 30)
        assert len(calls) == dgs_bound.MAX_ROUNDS
        last = GegenbauerPoly(48, np.concatenate(([1.0], calls[-1][2].x)))
        rounds = SHIFT_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert rounds and float(rounds[1]) == last.at_one()
        assert cert.verification.messages[-1].endswith("over 10 cutting-plane rounds")
        assert cert.bound_real == 895496406.965602
        assert verify_certificate(cert).passed

    @pytest.mark.usefixtures("lp_path")
    def test_a_later_round_failure_certifies_the_round_before_it(self, monkeypatch):
        # unpolished, round 8's LP fails, and round 7 is certified: the same
        # certificate as a run capped at 7 rounds
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        with monkeypatch.context() as patch:
            patch.setattr(dgs_bound, "MAX_ROUNDS", 7)
            expected = lp_bound(48, 0.5, 30)
        calls = TestFailedLPRound._fail_from_round(monkeypatch, 8)
        cert = lp_bound(48, 0.5, 30)
        assert len(calls) == 8
        assert cert.verification.messages[-1].endswith(
            "over 7 cutting-plane rounds; round 8 LP status 'numerical_failure'"
        )
        assert np.array_equal(cert.poly.coeffs, expected.poly.coeffs)
        assert cert.bound_real == expected.bound_real
        assert verify_certificate(cert).passed

    @pytest.mark.usefixtures("lp_path")
    def test_a_repeated_lp_answer_ends_the_rounds(self, monkeypatch):
        # unpolished, round 5's LP takes no pivot: it repeats round 4's basis,
        # so the rounds end without it, and round 4 is certified
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = TestWarmStartedRounds._record(monkeypatch)
        cert = lp_bound(24, 0.5, 20)
        assert len(calls) == 5
        assert calls[-1][2].iterations == 0 < calls[-2][2].iterations
        assert cert.verification.messages[-1].endswith("over 4 cutting-plane rounds")
        assert cert.bound_real == 196560.00019030404

    @pytest.mark.parametrize("case", [(32, 0.5, 20), (48, 0.5, 30)])
    def test_a_round_with_no_new_cuts_repeats_the_lp_and_ends_the_rounds(
        self, monkeypatch, case
    ):
        # with no cuts the next round re-solves the round before it, warm
        # started from its optimal basis, at no pivot, and the rounds end; a
        # warm re-solve that takes a pivot may move the last bits of the
        # answer, so only the bound is compared. Unpolished, so that the
        # rounds go on past round 1 (polished, both end there)
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        monkeypatch.setattr(dgs_bound, "_gap_rows", lambda grid, peaks: peaks[:0])
        with monkeypatch.context() as patch:
            patch.setattr(dgs_bound, "MAX_ROUNDS", 1)
            one_round = lp_bound(*case)
        cert = lp_bound(*case)
        assert cert.verification.passed and verify_certificate(cert).passed
        rounds = ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert rounds and int(rounds[1]) <= 3
        assert cert.bound_real == pytest.approx(one_round.bound_real, rel=1e-12)


# the inputs where Levenshtein's f_m is provably the degree's optimum: four
# kissing_lp cases and a small one; (8, .5) and (24, .5) sit on the closed
# end of I_6 and I_10, where the monic recurrence reads exactly 0. In the
# last three f_m's shift is large (0.78 at (1000, .1, 11)), and any shift
# below 1 is taken, on this path as on the LP's
FAST_PATH_CASES = [
    (8, 0.5, 6), (24, 0.5, 10), (24, 0.5, 20), (16, 0.7, 16), (3, 0.5, 6),
    (1000, 0.1, 11), (96, 0.2794, 35), (114, 0.33, 17),
]
# the other kissing_lp cases, where some Q_j L < 0, and the lp_stress cases:
# Q_j L < 0 at (24, .7, 30), (48, .5, 30) and (32, .5, 30), and m(s) = 19 > 12
# at (24, .7, 12)
DECLINED_CASES = [
    (3, 0.5, 10), (4, 0.5, 10), (32, 0.5, 20),
    (24, 0.7, 30), (48, 0.5, 30), (32, 0.5, 30), (24, 0.7, 12),
]


class TestLevenshteinPath:
    @pytest.mark.parametrize("case", FAST_PATH_CASES, ids=str)
    def test_taken_without_an_lp(self, monkeypatch, case):
        calls = TestWarmStartedRounds._record(monkeypatch)
        cert = lp_bound(*case)
        assert not calls
        assert cert.verification.passed and verify_certificate(cert).passed
        (message,) = cert.verification.messages
        found = LEVENSHTEIN_MESSAGE.fullmatch(message)
        assert found and found[1] == found[2] and int(found[3]) == case[2]
        m = int(found[2])
        assert cert.poly.degree == m <= case[2]
        least = found[4]
        assert (m == case[2]) == least.startswith("none")
        if m < case[2]:
            # the BDB test values sit at or above minus their rounding
            assert float(least) > -1e-9
        # P_hat = P - shift, a_0 = 1 - shift, with shift >= the noise term
        p_at_1, shift = float(found[5]), float(found[6])
        assert shift >= 1e-10 + 3e-15 * p_at_1
        assert cert.bound_real == pytest.approx(
            (p_at_1 - shift) / (1.0 - shift), rel=1e-15
        )
        assert cert.verification.condition_ii_margin < 0.0

    def test_the_anchors_keep_their_windows(self):
        assert 240.0 - 1e-6 <= lp_bound(8, 0.5, 6).bound_real <= 240.001
        for degree in (10, 20):
            cert = lp_bound(24, 0.5, degree)
            assert 196560.0 <= cert.bound_real <= 196561.0
            assert cert.bound_int == 196560
        assert lp_bound(16, 0.7, 16).bound_real >= 4320.0
        assert lp_bound(3, 0.5, 6).bound_int == 13

    @pytest.mark.parametrize("case", DECLINED_CASES, ids=str)
    def test_declined_before_any_coefficient_work(self, monkeypatch, case):
        expansions = []
        real = dgs_bound.exact.ratios_from_roots

        def spy(*args):
            expansions.append(args)
            return real(*args)

        monkeypatch.setattr(dgs_bound.exact, "ratios_from_roots", spy)
        polynomial = dgs_bound.levenshtein.levenshtein_polynomial(*case)
        assert dgs_bound._levenshtein_path(*case, polynomial) is None
        assert not expansions

    @pytest.mark.parametrize(
        "d, s", [(23, -0.3874), (54, -0.4329), (3, -0.5), (8, -0.2), (100, -0.05),
                 (16, -1.0 / 16), (7, -1.0 / 7)],
    )
    def test_a_degree_one_certificate_is_exactly_nonpositive(self, d, s):
        # P = a_0 + a_1 t is linear, so P <= 0 at -1 and at s, in exact
        # arithmetic over the stored floats, proves the sign condition
        cert = lp_bound(d, s, 1)
        assert LEVENSHTEIN_MESSAGE.fullmatch(cert.verification.messages[-1])
        a_0, a_1 = (Fraction(float(a)) for a in cert.poly.coeffs)
        assert a_0 > 0 and a_1 >= 0
        assert a_0 - a_1 <= 0
        assert a_0 + a_1 * Fraction(s) < 0


class TestGapRows:
    def test_points_are_sorted_unique_and_off_the_grid(self):
        grid = chebyshev_points(-1.0, 0.5, 64)
        fractions = np.arange(1, dgs_bound.GAP_ROWS + 1) / (dgs_bound.GAP_ROWS + 1)

        def gap(i):
            return grid[i] + (grid[i + 1] - grid[i]) * fractions

        inside = grid[20] + (grid[21] - grid[20]) / 3
        # a peak on a grid point, and one peak twice
        points = dgs_bound._gap_rows(grid, np.array([inside, grid[10], inside]))
        expected = np.sort(np.concatenate([gap(9), gap(20), [inside]]))
        assert np.array_equal(points, expected)


SMALL_GRID_CASES = [
    (d, cos_theta, degree, grid)
    for grid in (64, 100, 159)
    for degree in (12, 17, 24, 30, 40)
    if grid < 4 * degree
    for d in (3, 8, 24)
    for cos_theta in (0.5, 0.7, -0.3)
]

# round 1 leaves a violation > 1 on these, which no shift can absorb: the
# cutting planes must go on, and they reach a certificate
VIOLATION_ABOVE_ONE_CASES = {
    (24, 0.7, 17, 64),
    (24, 0.7, 24, 64),
    (24, 0.7, 30, 64),
    (24, 0.7, 40, 64),
    (24, 0.7, 30, 100),
    (24, 0.7, 40, 100),
    (24, 0.7, 40, 159),
}
assert VIOLATION_ABOVE_ONE_CASES <= set(SMALL_GRID_CASES)


class TestSmallGrids:
    # first-round grids (GRID_POINTS, patched) with fewer than 4 * degree
    # points: every input ends with a verified certificate or
    # NoCertificateError, never LPFailureError
    @pytest.mark.parametrize("case", SMALL_GRID_CASES, ids=str)
    def test_ends_with_a_certificate_or_no_certificate(self, monkeypatch, case):
        d, cos_theta, degree, grid = case
        monkeypatch.setattr(dgs_bound, "GRID_POINTS", grid)
        try:
            cert = lp_bound(d, cos_theta, degree)
        except NoCertificateError as exc:
            assert case not in VIOLATION_ABOVE_ONE_CASES
            assert re.search(
                r"is infeasible$|after \d+ cutting-plane rounds on a "
                rf"{grid}-point grid cannot be absorbed",
                str(exc),
            )
        else:
            assert verify_certificate(cert).passed
            if case in VIOLATION_ABOVE_ONE_CASES:
                assert cert.bound_real >= 196560.0  # the Leech lattice's minimal vectors

    def test_unabsorbed_violation_names_rounds_and_grid(self, monkeypatch):
        # round 1 of this input leaves a violation of about 123
        monkeypatch.setattr(dgs_bound, "MAX_ROUNDS", 1)
        monkeypatch.setattr(dgs_bound, "GRID_POINTS", 64)
        with pytest.raises(NoCertificateError) as info:
            lp_bound(24, 0.7, 17)
        found = re.fullmatch(
            r"residual sign violation (\S+) after \d+ cutting-plane rounds on a "
            r"64-point grid cannot be absorbed by shift (\S+) \(noise term (\S+)\)",
            str(info.value),
        )
        violation, shift, noise = map(float, found.groups())
        assert shift == max(violation, 0.0) + noise >= 1.0

    @pytest.mark.parametrize("grid", [64, 100, 159, 2000])
    def test_d24_degree24_reaches_one_bound_on_every_grid(self, monkeypatch, grid):
        # the terms of a row reach 8e7 here: the LP checks each row against
        # its own scale, so rounding fails no round and every grid ends alike
        monkeypatch.setattr(dgs_bound, "GRID_POINTS", grid)
        cert = lp_bound(24, 0.7, 24)
        assert "LP status" not in cert.verification.messages[-1]
        assert verify_certificate(cert).passed
        assert cert.bound_real == pytest.approx(79909684.66, rel=1e-8)

    def test_d24_degree40_on_a_100_point_grid(self, monkeypatch):
        # the cutting planes reach the kissing number from a 100-point grid
        monkeypatch.setattr(dgs_bound, "GRID_POINTS", 100)
        cert = lp_bound(24, 0.5, 40)
        assert 196560.0 <= cert.bound_real <= 196561.0


def _sweep_inputs(seed=12345, count=40):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(2, 49)), round(float(rng.uniform(-0.5, 0.9)), 3),
         int(rng.integers(1, 31)))
        for _ in range(count)
    ]


class TestPropertySweep:
    # every valid input ends quickly: a verified certificate whose cutting
    # planes converged before the round cap, or NoCertificateError
    @pytest.mark.parametrize("case", _sweep_inputs(), ids=str)
    def test_ends_quickly_below_the_round_cap(self, case):
        start = time.perf_counter()
        try:
            cert = lp_bound(*case)
        except NoCertificateError:
            pass
        else:
            assert verify_certificate(cert).passed
            last = cert.verification.messages[-1]
            rounds = ROUNDS_MESSAGE.fullmatch(last)
            assert LEVENSHTEIN_MESSAGE.fullmatch(last) or (
                rounds and int(rounds[1]) < dgs_bound.MAX_ROUNDS
            )
        assert time.perf_counter() - start < 1.0

    def test_a_growing_violation_is_cut_not_taken_for_a_stall(self, monkeypatch):
        # a round that moves the optimum to new peaks can raise the violation,
        # and stopping there would shift by it; unpolished (polished, the
        # rounds end at round 2), round 8's grows from 1.9e-6 to 3.9e-6 and
        # the rounds go on to round 9
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        cert = lp_bound(24, 0.765, 29)
        assert verify_certificate(cert).passed
        rounds = ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert rounds and int(rounds[1]) > 4
        assert cert.bound_real < 1.493e9


# inputs drawn by scripts/domain_sweep.py (seed 2: 300 inputs, d <= 64,
# cos_theta <= .9; seed 3: 200 inputs, d <= 199, cos_theta <= .999): the
# slowest ones, two that end in "cannot be absorbed", and the edges of the
# domain (d = 2, cos_theta near -1 and near 1, degree 1 and 40)
DOMAIN_SWEEP_CASES = [
    (39, 0.7469, 37), (114, 0.4156, 39), (37, 0.7013, 36), (25, 0.7434, 33),
    (60, 0.5305, 38), (50, 0.6738, 30), (16, 0.8356, 33), (42, 0.8169, 38),
    (49, 0.5658, 34), (177, 0.2468, 39), (88, 0.4013, 37), (44, 0.8276, 37),
    (36, 0.7024, 28), (34, 0.6135, 28), (128, 0.6034, 33), (56, 0.4635, 29),
    (45, 0.4736, 36), (41, 0.5917, 25), (78, 0.4671, 26), (56, 0.4279, 38),
    (121, 0.579, 32), (148, 0.3941, 24), (2, -0.7867, 37), (2, 0.9549, 22),
    (34, -0.9939, 5), (51, -0.9871, 21), (197, 0.2559, 30), (171, 0.9861, 8),
    (187, 0.9459, 1), (54, -0.5334, 40),
    # row-generation passes that rejected their warm start
    (44, 0.625, 33), (63, 0.4643, 23),
    # solves that reached the pivot cap of the tableau simplex that the
    # revised dual simplex replaced
    (44, 0.625, 35), (63, 0.6472, 37), (2, 0.5, 40),
]


class TestDomainSweep:
    @pytest.mark.parametrize("case", DOMAIN_SWEEP_CASES, ids=str)
    def test_ends_within_two_seconds_with_an_allowed_outcome(self, case):
        start = time.perf_counter()
        try:
            cert = lp_bound(*case)
        except NoCertificateError:
            pass
        else:
            assert verify_certificate(cert).passed
        assert time.perf_counter() - start < 2.0


# the sha256 of the file of each certificate that the Newton polish ends
# at round 1; each comment gives its bound unpolished -> polished
ONE_ROUND_DIGESTS = {
    # 13.158330866783311 (1 round, unpolished) -> 13.158329766062527
    (3, 0.5, 10): "f753a0305134059361cb19aee0ef79aff17dba526e6a4b7a7f94337b3f60acfd",
    # 25.558461854548923 (1 round, unpolished) -> 25.55842910002798
    (4, 0.5, 10): "f8f201cdf7afd8b2eeb8ee57031842739aa3fdbb89e1f8affed9e2f27bc79c1c",
    # 240.0000115669 (2 rounds, unpolished) -> 240.0000000241
    (8, 0.5, 6): "08e9fc753700d35d218637c5e49eb3db20ba2d5704bef793fa282030595a37bb",
    # 196560.00013627874 (4 rounds) -> 196560.00013556483
    (24, 0.5, 10): "989f02210e1809de4219d90083fbd7b2d11bcee4a5c29211c72b18819cf74915",
}


class TestWarmStartedRounds:
    @staticmethod
    def _record(monkeypatch):
        """Spy on lp_bound's LP solves; each entry is (lp, basis, solution)."""
        calls = []

        def solve(lp, basis=None):
            solution = solve_lp(lp, basis)
            calls.append((lp, basis, solution))
            return solution

        monkeypatch.setattr(dgs_bound, "solve_lp", solve)
        return calls

    @staticmethod
    def _seed(case):
        """f_m's basis of the first round's LP (``_levenshtein_basis``)."""
        d, cos_theta, degree = case
        points = chebyshev_points(-1.0, cos_theta, dgs_bound.GRID_POINTS)
        polynomial = dgs_bound.levenshtein.levenshtein_polynomial(*case)
        return dgs_bound._levenshtein_basis(points, degree, polynomial)

    @pytest.mark.usefixtures("lp_path")
    @pytest.mark.parametrize(
        "case",
        [(8, 0.5, 6), (24, 0.5, 20), (16, 0.7, 16), (3, 0.5, 10), (32, 0.5, 20),
         (48, 0.5, 30), (24, 0.7, 30)],
    )
    def test_every_round_matches_a_cold_solve(self, monkeypatch, case):
        # round 1 starts from f_m's basis, each later round from the one
        # before. Round 1's polish is declined, so that every case but
        # (3, .5, 10) warm-starts at least a second round, where the polish
        # ends it (polished at round 1, each ends there)
        real_polish = dgs_bound._polish

        def polish(*args):
            return real_polish(*args) if len(calls) > 1 else None

        monkeypatch.setattr(dgs_bound, "_polish", polish)
        calls = self._record(monkeypatch)
        lp_bound(*case)
        assert len(calls) >= 1 + (case != (3, 0.5, 10))
        assert np.array_equal(calls[0][1], self._seed(case))
        for index, (lp, basis, warm) in enumerate(calls):
            if index:
                assert np.array_equal(basis, calls[index - 1][2].basis)
            cold = solve_lp(lp)
            assert warm.status == cold.status == "optimal"
            assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    @pytest.mark.usefixtures("lp_path")
    @pytest.mark.parametrize("case", [(32, 0.5, 20), (48, 0.5, 30), (24, 0.7, 30)])
    def test_the_first_round_from_f_m_takes_under_half_the_cold_pivots(
        self, monkeypatch, case
    ):
        calls = self._record(monkeypatch)
        lp_bound(*case)
        lp, _, warm = calls[0]
        assert 2 * warm.iterations < solve_lp(lp).iterations

    @pytest.mark.parametrize("case", [(63, 0.6472, 37), (39, 0.7469, 37)])
    def test_a_repaired_solve_hands_on_a_basis_that_needs_no_restart(
        self, monkeypatch, case
    ):
        # periodic refactorizations find short entries of B^-1 c in these
        # rounds; each is repaired where it shows up, so no round's solve
        # falls back to the all-slack basis. Unpolished, so that
        # (39, .7469, 37) reaches those rounds: polished, it ends at round 1
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = self._record(monkeypatch)
        try:
            lp_bound(*case)
        except NoCertificateError:
            pass
        assert len(calls) >= 5
        assert all(solution.restarts == 0 for _, _, solution in calls)

    @pytest.mark.parametrize(
        "case", [(86, 0.4649956774256001, 23), (177, 0.4913150535231303, 40)]
    )
    def test_a_short_warm_start_with_an_infeasible_point_is_repaired(
        self, monkeypatch, case
    ):
        # a solve of each input starts from a basis whose B^-1 c is short
        # and whose point is infeasible; dual pivots repair it, where the
        # solve used to start over from the all-slack basis
        calls = self._record(monkeypatch)
        try:
            lp_bound(*case)
        except NoCertificateError:
            pass
        assert calls
        assert all(solution.restarts == 0 for _, _, solution in calls)

    def test_f_m_rows_that_share_a_grid_gap_leave_round_1_cold(self, monkeypatch):
        # at d = 1e12 the zeros of K_10(., 5e-6) lie closer together than
        # the grid's rows, so two of f_21's rows coincide and round 1 starts
        # from the all-slack basis
        case = (10**12, 5e-06, 21)
        points = chebyshev_points(-1.0, case[1], dgs_bound.GRID_POINTS)
        polynomial = dgs_bound.levenshtein.levenshtein_polynomial(*case)
        assert polynomial[0] == 21
        assert dgs_bound._levenshtein_basis(points, case[2], polynomial) is None
        calls = self._record(monkeypatch)
        with pytest.raises(NoCertificateError, match="is infeasible"):
            lp_bound(*case)
        assert calls[0][1] is None

    @pytest.mark.usefixtures("lp_path")
    def test_later_rounds_cost_few_pivots(self, monkeypatch):
        # f_10 is the degree-20 optimum, so its basis is the first round's:
        # round 1 takes no pivot, and the later rounds together take fewer
        # than a cold solve of round 1; unpolished, so that later rounds run
        # (polished, the rounds end at round 1)
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = self._record(monkeypatch)
        lp_bound(24, 0.5, 20)
        pivots = [solution.iterations for _, _, solution in calls]
        assert 2 <= len(pivots) < dgs_bound.MAX_ROUNDS
        assert pivots[0] == 0
        assert sum(pivots) < solve_lp(calls[0][0]).iterations

    def test_late_rounds_take_no_noise_pivots(self, monkeypatch):
        # a reduced cost inside its own rounding used to price out, and rounds
        # 6, 7, 9 and 10 took 2879, 2398, 2591 and 1934 pivots; unpolished, so
        # that the rounds run past round 6 (polished, they end at round 2)
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = self._record(monkeypatch)
        lp_bound(24, 0.765, 29)
        assert len(calls) >= 7
        assert all(solution.iterations < 1000 for _, _, solution in calls[1:])

    def test_every_round_of_a_noisy_input_is_optimal(self, monkeypatch):
        # noise pivots used to run round 6 into the pivot cap; unpolished, so
        # that the rounds reach round 6 (polished, they end at round 1)
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        calls = self._record(monkeypatch)
        cert = lp_bound(39, 0.7469, 37)
        assert len(calls) >= 6
        assert all(solution.status == "optimal" for _, _, solution in calls)
        assert "LP status" not in cert.verification.messages[-1]

    @pytest.mark.parametrize("case", ONE_ROUND_DIGESTS, ids=str)
    @pytest.mark.usefixtures("lp_path")
    def test_one_round_certificates_keep_their_bytes(self, tmp_path, case):
        # each runs one round, a single LP, so its file pins the LP, the
        # Newton polish, its dual bound, the shift and the verification report
        # (maxima from the roots of P'); UNPOLISHED_DIGESTS pins the unpolished
        # path: their raw LP answers, and for the last two the cutting planes
        # (_gap_rows) and the warm-started, row-generated LPs; the report's
        # maximum is taken over the critical points of P' on [-1, 1]
        path = tmp_path / "cert.json"
        jsonutil.dump_path(str(path), certificate_to_json_dict(lp_bound(*case)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ONE_ROUND_DIGESTS[case]

    @pytest.mark.parametrize(
        "case", [(3, 0.5, 10), (24, 0.5, 10), (24, 0.765, 29), (78, 0.4671, 26),
                 (8, 0.5, 6), (3, -0.21, 1)],
        ids=str,
    )
    def test_each_round_and_candidate_is_scanned_once(self, monkeypatch, case):
        # a round scans its LP answer once for its cuts (``_maximum``); each
        # candidate that reaches the noise gate or is certified (f_m, a
        # polished P, the last unpolished LP answer) is scanned once by the
        # verifier's interval_margin, and pfender_bound reuses that scan
        scans, inside, polished = [], [], []
        real_scan, real_bound = pfender.critical_points, pfender.pfender_bound
        real_polish = dgs_bound._polish

        def scan(*args):
            scans.append(bool(inside))
            return real_scan(*args)

        def bound(*args):
            inside.append(True)
            try:
                return real_bound(*args)
            finally:
                inside.pop()

        def polish(*args):
            found = real_polish(*args)
            polished.append(found is not None)
            return found

        for module in (dgs_bound, pfender):
            monkeypatch.setattr(module, "critical_points", scan)
        monkeypatch.setattr(pfender, "pfender_bound", bound)
        monkeypatch.setattr(dgs_bound, "_polish", polish)
        cert = lp_bound(*case)
        messages = cert.verification.messages
        if LEVENSHTEIN_MESSAGE.fullmatch(messages[-1]):
            expected = 1  # f_m, with no LP
        else:
            rounds = int(ROUNDS_MESSAGE.fullmatch(messages[-1])[1])
            unpolished = not messages[0].startswith("Newton-polished")
            expected = rounds + sum(polished) + unpolished
        assert len(scans) == expected
        assert not any(scans)

    @pytest.mark.parametrize("case", [(44, 0.625, 33), (63, 0.4643, 23)])
    def test_former_warm_start_rejections_certify(self, case):
        # a row-generation pass of the tableau simplex rejected the previous
        # pass's basis at 0 pivots, which ended these inputs in
        # LPFailureError; TestWarmStart covers the restart itself
        start = time.perf_counter()
        cert = lp_bound(*case)
        assert time.perf_counter() - start < 2.0
        assert cert.verification.passed and verify_certificate(cert).passed

    def test_cutting_planes_do_not_import_numpy_ma(self):
        # np.setdiff1d, np.isin and np.unique(axis=...) import numpy.ma, 10-20
        # ms of a cold start; (24, .5, 10) takes Levenshtein's path and
        # (3, .5, 10) solves the grid LP
        script = (
            "import sys; from codebounds.dgs_bound import lp_bound; "
            "lp_bound(24, 0.5, 10); lp_bound(3, 0.5, 10); "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_infeasible_message_names_cos_theta(self):
        with pytest.raises(NoCertificateError) as info:
            lp_bound(24, np.float64(0.7), 12)
        assert str(info.value) == (
            "no certificate at this degree: the degree-12 LP at cos_theta=0.7 "
            "is infeasible"
        )


# the kissing_lp and lp_stress certificates of perfbench/workloads.py, each
# with the sha256 of its file when every polish fails and Levenshtein's path
# declines; an LP that takes no pivot repeats the round before it and ends
# the rounds, so (24, .5, 20) ends after 4 rounds and (32, .5, 20) after 5,
# where they would run to MAX_ROUNDS
UNPOLISHED_DIGESTS = {
    (3, 0.5, 10): "bdc3ca9a8c11ccf35e16cb24d2f36b210b9e483542548f99a44d89a5bbf7cf31",
    (4, 0.5, 10): "7b39896380c1effeefbf486e30c5f25ffb379d45142136422fdcacfb340116d5",
    (8, 0.5, 6): "3161fe4615e462f8138a544ba6b77d5d9a630c21a732ed4c907d994ca67673ac",
    (24, 0.5, 10): "44191ff0c33e263de252a5e0b7dbc0417edf51b44bd91ca6b17c59ec3eaf0ceb",
    (24, 0.5, 20): "ad1a9f11b5a457781f2d88c1174f8e34026febdfe77382bc3080ef526d7ec2cf",
    (32, 0.5, 20): "69ed5061f9c43550cf502e9ed37e2cc765b779e74cb35981604c388146b60cd7",
    (16, 0.7, 16): "dc8d7477f5efa0a17d30e7c0a49c4b4ac4c890a5a42dbb492b411a1e4ae669fc",
    (24, 0.7, 30): "6c6094455dd56711c7239e7493e2c63a47c3ec995ed7c6dad0da139b07978505",
    (48, 0.5, 30): "d7304f9de4570ed20edae879368d5cc228fab95130393e6e17927ffc2d7a514c",
    (32, 0.5, 30): "ada65bec7a6132feff122f435fb80a25463a979a9ee3c106a038068901eabef9",
}
# inputs whose loop ends with a polished certificate: six kissing_lp and
# three lp_stress cases, (24, .765, 29), and four from the domain sweep, the
# last two at P(1) ~ 2.7e13 and 2.4e14; (48, .5, 30), (24, .765, 29) and
# (39, .7469, 37) keep a lone tight row, a double root of its own
POLISHED_CASES = [
    (3, 0.5, 10), (4, 0.5, 10), (24, 0.5, 10), (24, 0.5, 20), (32, 0.5, 20),
    (16, 0.7, 16), (24, 0.7, 30), (32, 0.5, 30), (48, 0.5, 30), (24, 0.765, 29),
    (63, 0.4643, 23), (36, 0.7024, 28), (39, 0.7469, 37), (114, 0.4156, 39),
]
POLISH_MESSAGE = re.compile(
    r"Newton-polished in (\d+) steps on the active points \[(.+)\]: dual bound "
    r"(\S+), grid LP optimum (\S+), gap (\S+)"
)
# the certifying lp_stress inputs and kissing_lp's (32, .5, 20): round 1's
# polished P(1) meets its own dual bound, 1.1e-5 to 3.4e-5 above the round's
# grid LP optimum
ROUND_ONE_CASES = [(24, 0.7, 30), (48, 0.5, 30), (32, 0.5, 30), (32, 0.5, 20)]
SHIFT_MESSAGE = re.compile(r"P\(1\) (\S+) inflated by shift (\S+) over .*")


@pytest.mark.usefixtures("lp_path")
class TestNewtonPolish:
    def test_a_failing_polish_leaves_the_unpolished_bytes(self, monkeypatch):
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        for case, digest in UNPOLISHED_DIGESTS.items():
            text = jsonutil.dumps(certificate_to_json_dict(lp_bound(*case)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, case

    @pytest.mark.parametrize("case", POLISHED_CASES, ids=str)
    def test_a_polished_certificate_is_shifted_by_at_least_its_noise(self, case):
        cert = lp_bound(*case)
        polish, rounds = cert.verification.messages[-2:]
        polish, shift = POLISH_MESSAGE.fullmatch(polish), SHIFT_MESSAGE.fullmatch(rounds)
        assert polish and shift and ROUNDS_MESSAGE.fullmatch(rounds)
        assert int(polish[1]) == dgs_bound.NEWTON_STEPS
        dual, optimum, gap = (float(polish[i]) for i in (3, 4, 5))
        # P_hat = P - s lowers a_0 alone: the P(1) that the message names,
        # less 1 - a_0, over a_0 is the bound
        p_at_1, s = float(shift[1]), float(shift[2])
        a_0 = float(cert.poly.coeffs[0])
        assert a_0 == 1.0 - s
        assert (p_at_1 - (1.0 - a_0)) / a_0 == pytest.approx(cert.bound_real, rel=1e-15)
        # the lower bound the message names: the larger of the dual bound
        # (-inf where it does not hold) and the grid LP optimum
        lower = max(dual, optimum)
        assert gap == cert.bound_real / lower - 1.0
        # P(1)'s noise term
        assert s >= (1e-10 + 3e-15 * p_at_1) * (1.0 - 1e-9)
        assert cert.verification.condition_ii_margin < 0.0
        # the stop rule: P(1) is within noise * P(1) of that lower bound on
        # every certificate of this degree
        assert p_at_1 - lower <= s * p_at_1 * (1.0 + 1e-9)
        points = [float(t) for t in polish[2].split(", ")]
        assert points == sorted(points)
        assert -1.0 <= points[0] and points[-1] <= case[1]

    @pytest.mark.parametrize("case", ROUND_ONE_CASES, ids=str)
    def test_ends_polished_after_one_lp(self, monkeypatch, case):
        calls = TestWarmStartedRounds._record(monkeypatch)
        cert = lp_bound(*case)
        assert len(calls) == 1
        polish = POLISH_MESSAGE.fullmatch(cert.verification.messages[-2])
        rounds = ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert polish and rounds and rounds[1] == "1"
        dual, optimum = float(polish[3]), float(polish[4])
        assert optimum * (1.0 + 1e-5) < dual <= cert.bound_real
        assert verify_certificate(cert).passed

    def test_a_round_one_polish_ends_the_rounds(self, monkeypatch):
        # (3, .5, 10)'s round-1 LP answer is polished, and the rounds end at
        # the polished P
        real_polish, polished = dgs_bound._polish, []

        def polish(*args):
            polished.append(len(calls))
            return real_polish(*args)

        monkeypatch.setattr(dgs_bound, "_polish", polish)
        calls = TestWarmStartedRounds._record(monkeypatch)
        cert = lp_bound(3, 0.5, 10)
        assert polished == [1]
        assert POLISH_MESSAGE.fullmatch(cert.verification.messages[-2])
        rounds = ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert rounds and rounds[1] == "1"

    @pytest.mark.parametrize("case", ROUND_ONE_CASES, ids=str)
    @pytest.mark.parametrize("broken", ["a negative multiplier", "a root past cos_theta"])
    def test_a_broken_dual_is_no_lower_bound(self, monkeypatch, case, broken):
        # each polish's dual, with one y_i negated or one root t_j moved just
        # past cos_theta, is not a lower bound, so round 1's polished P(1)
        # is judged against the grid LP optimum alone and rejected
        real_dual_bound, bounds = dgs_bound._dual_bound, []

        def dual_bound(cos_theta, values, y, t):
            y, t = y.copy(), t.copy()
            if broken == "a negative multiplier":
                y[y.argmax()] *= -1.0
            else:
                t[t.argmax()] = np.nextafter(cos_theta, 1.0)
            bounds.append(real_dual_bound(cos_theta, values, y, t))
            return bounds[-1]

        monkeypatch.setattr(dgs_bound, "_dual_bound", dual_bound)
        calls = TestWarmStartedRounds._record(monkeypatch)
        cert = lp_bound(*case)
        assert bounds and all(bound == -math.inf for bound in bounds)
        assert len(calls) > 1
        assert verify_certificate(cert).passed

    def test_the_dual_bound_checks_each_condition(self):
        # G_1 = t at a root 0.25 and at the end -1: 1 + sum y G_1 >= 0 holds
        # for each y below, and L_dual = 1 + sum y only where y >= 0 and the
        # root lies in [-1, cos_theta]
        dual_bound, values = dgs_bound._dual_bound, np.array([[0.25, -1.0]])
        root, past = np.array([0.25]), np.array([np.nextafter(0.25, 1.0)])
        assert dual_bound(0.5, values, np.array([2.0, 1.5]), root) == 4.5
        assert dual_bound(0.5, values, np.array([4.0, -1.0]), root) == -math.inf
        assert dual_bound(0.25, values, np.array([2.0, 1.5]), past) == -math.inf
        # 1 + sum y G_1 = -1 < 0: y is no dual
        assert dual_bound(0.5, values, np.array([0.0, 2.0]), root) == -math.inf
        # a NaN y, and a y below 0 by the least float, fail the y >= 0 check
        assert dual_bound(0.5, values, np.array([math.nan, 1.5]), root) == -math.inf
        assert dual_bound(0.5, values, np.array([2.0, -5e-324]), root) == -math.inf

    @pytest.mark.usefixtures("lp_path")
    def test_unpolished_rounds_keep_e8(self, monkeypatch):
        # with no polish, (8, .5, 6) runs 4 rounds; its last LP answer, 2.5e-10
        # above 0 (239.99999995499283 unshifted), is shifted like any other
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        cert = lp_bound(8, 0.5, 6)
        rounds = ROUNDS_MESSAGE.fullmatch(cert.verification.messages[-1])
        assert rounds and rounds[1] == "4"
        assert verify_certificate(cert).passed
        # the last bits depend on the BLAS kernel (ROADMAP item 13)
        assert cert.bound_real == pytest.approx(240.00000003913144, rel=1e-12)
        assert cert.bound_int == 240
        assert prove_nonpositive(8, cert.poly.coeffs.tolist(), -1.0, 0.5) is None

    def test_a_lone_tight_row_is_polished(self, monkeypatch):
        # (48, .5, 30) keeps one tight row apart from any other, so 2 J + E
        # != |K|; the lone row is a double root of its own, and the Newton
        # system has as many equations as unknowns all the same
        cert = lp_bound(48, 0.5, 30)
        assert POLISH_MESSAGE.fullmatch(cert.verification.messages[-2])
        assert verify_certificate(cert).passed
        monkeypatch.setattr(dgs_bound, "_polish", lambda *args: None)
        assert cert.bound_real < lp_bound(48, 0.5, 30).bound_real


def _with_poly(cert, coeffs):
    """``cert`` with its P's coefficients replaced: the pair pfender_form
    gives for them, and no report."""
    phi, c = pfender_form(GegenbauerPoly(cert.phi.dim, coeffs))
    return dataclasses.replace(cert, phi=phi, c=c, verification=None)


def _reloaded(cert):
    return certificate_from_json_dict(json.loads(jsonutil.dumps(
        certificate_to_json_dict(cert)
    )))


class TestVerification:
    def test_pipeline_output_passes(self, cert_d8):
        report = verify_certificate(cert_d8)
        assert report.passed
        assert report.condition_ii_margin <= 1e-9

    def test_negative_coefficient_rejected(self, cert_d8):
        coeffs = cert_d8.poly.coeffs.copy()
        coeffs[1] = -0.1
        report = verify_certificate(_with_poly(cert_d8, coeffs))
        assert not report.passed and not report.condition_i_ok
        assert "negative Gegenbauer coefficient" in report.condition_i_evidence

    def test_a_stored_coefficient_just_below_zero_is_rejected(self, cert_d3, tmp_path):
        # a_6 of the (3, .5, 10) certificate is 0.0; a file may not hold
        # it at -1e-13, however small
        data = certificate_to_json_dict(cert_d3)
        assert data["phi"]["coeffs"][6] == 0.0
        data["phi"]["coeffs"][6] = -1e-13
        path = str(tmp_path / "cert.json")
        jsonutil.dump_path(path, data)
        report = verify_certificate(certificate_from_json_dict(jsonutil.load_path(path)))
        assert not report.passed and report.messages == []
        assert report.condition_i_evidence == (
            "condition (i) not established: negative Gegenbauer coefficient -1e-13"
        )

    def test_constructed_sign_violation_located(self):
        # concave bump peaking at cos_theta - 0.01 with value 0.05
        cos_theta = 0.5
        x0 = cos_theta - 0.01
        # P(r) = 0.05 - (r - x0)^2 in the monomial basis
        mono = np.array([0.05 - x0 * x0, 2 * x0, -1.0])
        from codebounds.gegenbauer import expand_in_basis

        poly = expand_in_basis(mono, 3)
        cert = PfenderCertificate(
            *pfender_form(poly),
            cos_theta=cos_theta,
            variant="interval",
            bound_real=poly.at_one() / float(poly.coeffs[0]),
            bound_int=math.floor(poly.at_one() / float(poly.coeffs[0]) + 1e-9),
        )
        report = verify_certificate(cert)
        assert not report.passed
        assert report.condition_ii_margin == pytest.approx(0.05, abs=1e-9)
        assert report.condition_ii_location == pytest.approx(x0, abs=1e-6)

    def test_bound_arithmetic_mismatch_detected(self, cert_d8):
        bad = copy.deepcopy(cert_d8)
        bad.bound_real = bad.bound_real + 1.0
        report = verify_certificate(bad)
        assert not report.passed
        assert any("bound arithmetic" in m for m in report.messages)

    def test_nan_bound_real_fails(self, cert_d8):
        # NaN > tol is False, so a NaN stored bound once passed
        bad = copy.deepcopy(cert_d8)
        bad.bound_real = math.nan
        report = verify_certificate(bad)
        assert not report.passed
        assert any("bound arithmetic: stored nan" in m for m in report.messages)

    def test_scale_invariance_of_ratio(self, cert_d8):
        # multiplying every coefficient by lambda > 0 leaves P(1)/a_0 alone
        for lam in (0.25, 3.0, 117.0):
            scaled = _with_poly(cert_d8, lam * cert_d8.poly.coeffs)
            report = verify_certificate(scaled)
            assert report.passed
            ratio = scaled.poly.at_one() / scaled.poly.coeffs[0]
            assert ratio == pytest.approx(cert_d8.bound_real, rel=1e-10)

    @pytest.mark.parametrize(
        "a0, message",
        [(0.0, "must be strictly"), (1e-320, "past the float range")],
    )
    def test_a0_without_a_finite_bound_rejected(self, cert_d8, a0, message):
        # P(1)/a_0 divides by zero or overflows; a stored bound of 1 must not
        # pass for the bound the coefficients cannot give
        coeffs = cert_d8.poly.coeffs.copy()
        coeffs[0] = a0
        bad = dataclasses.replace(_with_poly(cert_d8, coeffs), bound_real=1.0, bound_int=1)
        report = verify_certificate(bad)
        assert not report.passed
        assert any(message in m for m in report.messages), report.messages

    @pytest.mark.parametrize("cos_theta", [-1.5, 1.5, math.nan])
    def test_cos_theta_outside_the_range_raises(self, cert_d8, cos_theta):
        bad = copy.deepcopy(cert_d8)
        bad.cos_theta = cos_theta
        with pytest.raises(ValueError, match=r"cos_theta must lie in \[-1, 1\]"):
            verify_certificate(bad)

    def test_a_finite_set_certificate_raises(self, cert_d8):
        # its condition (ii) holds on a code's values, not on the interval
        with pytest.raises(ValueError, match="checked against its code"):
            verify_certificate(dataclasses.replace(cert_d8, variant="finite_set"))

    def test_one_pfender_bound_call_and_one_scan(self, monkeypatch, cert_d8):
        calls = []

        def spy(name, real):
            def wrapped(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(pfender, name, wrapped)

        spy("pfender_bound", pfender.pfender_bound)
        spy("critical_points", pfender.critical_points)
        # a certificate read from a file, whose phi has found no critical
        # point yet
        assert verify_certificate(_reloaded(cert_d8)).passed
        assert calls == ["pfender_bound", "critical_points"]


class TestPfenderForm:
    """A Delsarte certificate is checked as the structural Pfender
    certificate (P - a_0, a_0), by the same code."""

    @staticmethod
    def _variants(cert):
        # the certificate and criterion 9's two mutants of it
        negated = cert.poly.coeffs.copy()
        negated[1] = -abs(negated[1]) - 0.1
        shifted = cert.poly.coeffs.copy()
        shifted[0] += 0.5
        return [cert, _with_poly(cert, negated), _with_poly(cert, shifted)]

    @pytest.mark.parametrize(
        "case",
        [(3, 0.5, 10), (4, 0.5, 10), (8, 0.5, 6), (24, 0.5, 10),
         (24, 0.5, 20), (32, 0.5, 20), (16, 0.7, 16)],
    )
    def test_verdicts_and_bounds_agree(self, case):
        passed = []
        for cert in self._variants(lp_bound(*case)):
            phi, c = pfender_form(cert.poly)
            assert c == cert.c and phi.coeffs[0] == 0.0
            assert np.array_equal(phi.coeffs, cert.phi.coeffs)
            report = verify_certificate(cert)
            structural = pfender.pfender_bound(phi, c, cert.cos_theta)
            checked = structural.verification
            assert report.passed == checked.passed
            assert report.condition_ii_margin == checked.condition_ii_margin
            assert report.condition_ii_location == checked.condition_ii_location
            # bitwise: P(1) / a_0 is (phi(1) + c) / c
            assert structural.bound_real == cert.poly.at_one() / c
            if report.passed:
                assert structural.bound_real == cert.bound_real
            data = pfender.certificate_to_json_dict(structural)
            back = pfender.certificate_from_json_dict(json.loads(jsonutil.dumps(data)))
            assert back.variant == "interval"
            assert np.array_equal(back.phi.coeffs, phi.coeffs)
            assert back.bound_real == structural.bound_real
            passed.append(report.passed)
        assert passed == [True, False, False]

    def test_poly_is_the_inverse_of_pfender_form(self, cert_d3):
        assert cert_d3.poly.dim == 3
        assert pfender_form(cert_d3.poly)[1] == cert_d3.c
        assert cert_d3.poly.coeffs[1:].tobytes() == cert_d3.phi.coeffs[1:].tobytes()
        table = dataclasses.replace(cert_d3, phi=PhiSpec("table", [0.0, 1.0]))
        with pytest.raises(ValueError, match="not a Gegenbauer polynomial"):
            table.poly


class TestCertified:
    @pytest.mark.parametrize(
        "case, path",
        [
            ((8, 0.5, 6), "Levenshtein's f_6"),
            ((3, 0.5, 10), "Newton-polished"),
            ((78, 0.4671, 26), "Newton-polished"),
            ((3, -0.21, 1), "P(1)"),
        ],
        ids=str,
    )
    def test_the_shift_is_the_verifiers_maximum_plus_noise(self, case, path):
        # f_m, a polished P and a degree-1 LP answer: the certificate is
        # (P - 1, 1 - shift), with shift = max(v, 0) + noise for P's maximum
        # v as the verifier's interval_margin measures it on the
        # certificate's own phi, and it is proven <= 0 exactly
        d, cos_theta, _ = case
        cert = lp_bound(*case)
        messages = cert.verification.messages
        assert messages[0].startswith(path)
        shift = float(re.search(r"inflated by shift (\S+)", messages[-1])[1])
        assert cert.phi.coeffs[0] == 0.0 and cert.c == 1.0 - shift
        violation = pfender.interval_margin(cert.phi, 1.0, cos_theta)[0]
        p_at_1 = pfender.bound_values(cert.phi, 1.0)[0]
        assert shift == max(violation, 0.0) + dgs_bound._noise(p_at_1)
        assert prove_nonpositive(d, cert.poly.coeffs.tolist(), -1.0, cos_theta) is None

    def test_the_noise_term_alone_can_refuse_a_candidate(self):
        # the last round's P is below 0 on the interval, but its P(1) above
        # 3.3e14 makes the noise term, and so the shift, at least 1
        with pytest.raises(NoCertificateError) as info:
            lp_bound(167, 0.3664, 36)
        found = re.search(
            r"residual sign violation (\S+) .* cannot be absorbed by shift (\S+) "
            r"\(noise term (\S+)\)",
            str(info.value),
        )
        violation, shift, noise = map(float, found.groups())
        assert violation < 0.0 and shift == noise >= 1.0


class TestBoundTable:
    def test_d8_sweep(self):
        rows = bound_table(8, 0.5, [2, 4, 6])
        by_degree = {row.degree: row for row in rows}
        assert by_degree[6].certificate.bound_real == pytest.approx(240.0, abs=1e-3)
        low = by_degree[2].certificate
        assert low is None or low.bound_real > 240.001

    def test_monotone_in_degree(self):
        rows = bound_table(3, 0.5, [6, 10])
        low, high = (row.certificate for row in rows)
        # a degree-6 certificate is also a degree-10 one; each degree's own
        # cutting planes and reported inflation are absorbed by the cushion
        assert high.bound_real <= low.bound_real + 1e-3

    def test_d4_expected_value(self):
        rows = bound_table(4, 0.5, [10])
        assert rows[0].certificate.bound_real >= 24.0
        assert rows[0].certificate.bound_real == pytest.approx(25.558, abs=2e-3)

    def test_unsorted_degrees_get_the_sorted_certificates(self):
        # each degree is its own lp_bound call, so the order is free
        def files(degrees):
            return [
                (row.degree, jsonutil.dumps(certificate_to_json_dict(row.certificate)))
                for row in bound_table(3, 0.5, degrees)
            ]

        assert files([10, 6])[::-1] == files([6, 10])


class TestSoundnessFloor:
    def test_existing_codes_not_contradicted(self):
        # (dim, cos_theta, degree, existing code size)
        cases = [
            (2, 0.5, 8, 6),
            (3, 0.5, 9, 12),
            (4, 0.5, 8, 24),
            (8, 0.5, 6, 240),
            (3, 1.0 / math.sqrt(5.0), 8, 12),
            (4, -0.25, 6, 5),
            (3, 0.0, 8, 6),  # cross polytope; LP is tight at 2d here
            (5, 0.0, 8, 10),
        ]
        for d, ct, m, n in cases:
            cert = lp_bound(d, ct, m)
            assert cert.bound_real >= n - 1e-6


class TestSerialization:
    def test_round_trip(self, cert_d8):
        back = _reloaded(cert_d8)
        assert back.phi.dim == cert_d8.phi.dim
        assert back.cos_theta == cert_d8.cos_theta
        assert np.array_equal(back.phi.coeffs, cert_d8.phi.coeffs)
        assert back.c == cert_d8.c
        assert back.bound_real == cert_d8.bound_real
        assert back.bound_int == cert_d8.bound_int
        assert back.verification.passed == cert_d8.verification.passed
        # a reloaded certificate re-verifies from scratch
        assert verify_certificate(back).passed

    def test_field_names(self, cert_d8):
        data = certificate_to_json_dict(cert_d8)
        assert list(data.keys()) == [
            "kind",
            "variant",
            "phi",
            "c",
            "cos_theta",
            "bound_real",
            "bound_int",
            "verification",
        ]
        assert data["kind"] == "pfender" and data["variant"] == "interval"
        assert list(data["verification"].keys()) == [
            "condition_i_ok",
            "condition_i_evidence",
            "condition_ii_ok",
            "condition_ii_margin",
            "condition_ii_location",
            "passed",
            "special_case_le_one",
            "messages",
        ]

    @pytest.mark.parametrize("field, value", [("dim", 8.7), ("bound_int", 240.9)])
    def test_integer_fields_take_json_integers_only(self, cert_d8, field, value):
        # int(...) truncated these to 8 and 240, and the file then verified
        data = certificate_to_json_dict(cert_d8)
        (data["phi"] if field == "dim" else data)[field] = value
        message = f"^{field} must be an integer, got {value}$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [("cos_theta", "0.5"), ("bound_real", True), ("coeffs", "1"), ("c", "1")],
    )
    def test_real_fields_take_json_numbers_only(self, cert_d8, field, value):
        # float(...) parsed the string and took True as 1.0
        data = certificate_to_json_dict(cert_d8)
        if field == "coeffs":
            data["phi"][field][2] = value
        else:
            data[field] = value
        message = f"^{field} must be a real number, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "where, value",
        [
            (("bound_real",), math.nan),
            (("cos_theta",), math.inf),
            (("phi", "coeffs", 1), -math.inf),
            (("verification", "condition_ii_margin"), math.nan),
        ],
        ids=str,
    )
    def test_non_finite_reals_are_rejected(self, cert_d8, where, value):
        # json.loads reads the tokens NaN and Infinity, which the writer
        # never emits: a file with "bound_real": NaN once loaded and verified
        data = certificate_to_json_dict(cert_d8)
        *path, last = where
        target = data
        for key in path:
            target = target[key]
        target[last] = value
        text = json.dumps(data)
        assert "NaN" in text or "Infinity" in text
        field = [key for key in where if isinstance(key, str)][-1]
        message = f"^{field} must be finite, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict(json.loads(text))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_writer_never_emits_non_finite_floats(self, value):
        with pytest.raises(
            ValueError, match="Out of range float values are not JSON compliant"
        ):
            jsonutil.dumps({"bound_real": value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("passed", "false", "passed must be true or false, got 'false'"),
            ("passed", 0, "passed must be true or false, got 0"),
            ("condition_ii_margin", "0.5",
             "condition_ii_margin must be a real number, got '0.5'"),
            ("condition_ii_margin", None,
             "condition_ii_margin must be a real number, got None"),
            ("messages", "ok", "messages must be an array of strings, got 'ok'"),
            ("messages", [1], r"messages must be an array of strings, got \[1\]"),
            ("condition_i_evidence", 1, "condition_i_evidence must be a string, got 1"),
            ("condition_ii_location", None,
             "condition_ii_location must be a real number, got None"),
        ],
        ids=["passed-string", "passed-int", "real-string", "real-null",
             "messages-string", "messages-int", "evidence-int", "location-null"],
    )
    def test_stored_report_is_read_strictly(self, cert_d8, field, value, message):
        # bool("false") is True: the verdict was flipped and written back out
        data = certificate_to_json_dict(cert_d8)
        data["verification"][field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            certificate_from_json_dict(data)

    def test_stored_report_round_trips(self, cert_d8):
        data = certificate_to_json_dict(cert_d8)
        back = certificate_from_json_dict(json.loads(jsonutil.dumps(data)))
        assert back.verification == cert_d8.verification
        # a reloaded file writes the same bytes
        assert jsonutil.dumps(certificate_to_json_dict(back)) == jsonutil.dumps(data)

    def test_certificate_and_report_must_be_objects(self, cert_d8):
        message = "^pfender certificate must be a JSON object, got list$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict([1, 2])
        data = certificate_to_json_dict(cert_d8)
        data["verification"] = [True]
        message = "^verification must be a JSON object, got list$"
        with pytest.raises(ValueError, match=message):
            certificate_from_json_dict(data)
        # a report missing a field, or with one it does not have
        full = certificate_to_json_dict(cert_d8)["verification"]
        for report in ({"passed": True}, {**full, "grid_size": 20000}):
            data["verification"] = report
            with pytest.raises(TypeError):
                certificate_from_json_dict(data)
        del full["messages"]
        data["verification"] = full
        with pytest.raises(KeyError, match="messages"):
            certificate_from_json_dict(data)

    def test_file_with_old_refinement_depth_still_loads(self):
        # files written by older versions, of the kind "dgs", also record
        # the scan's grid; their stored report is not read
        data = jsonutil.load_path(DATA / "dgs_8_0.5_6.json")
        data["verification"]["grid_size"] = 20000
        data["verification"]["refinement_depth"] = 60
        back = certificate_from_json_dict(json.loads(jsonutil.dumps(data)))
        assert back.verification is None
        assert verify_certificate(back).passed


# bound lp files written by the version before the Pfender file format
# (kind "dgs": the polynomial's dimension and coefficients, and its report)
OLD_FILES = {
    (3, 0.5, 10): "dgs_3_0.5_10.json",
    (8, 0.5, 6): "dgs_8_0.5_6.json",
    (24, 0.5, 10): "dgs_24_0.5_10.json",
    (1000, 0.1, 11): "dgs_1000_0.1_11.json",
    (3, -0.21, 1): "dgs_3_-0.21_1.json",
}


class TestOldFiles:
    @pytest.mark.parametrize("case", OLD_FILES, ids=str)
    def test_an_old_file_loads_as_its_pfender_pair_and_verifies(self, case):
        data = jsonutil.load_path(DATA / OLD_FILES[case])
        assert data["kind"] == "dgs"
        cert = certificate_from_json_dict(data)
        assert cert.variant == "interval" and cert.verification is None
        assert cert.phi.coeffs[0] == 0.0 and cert.c == data["gegenbauer_coeffs"][0]
        assert cert.phi.coeffs[1:].tolist() == data["gegenbauer_coeffs"][1:]
        assert verify_certificate(cert).passed
        # its bounds, bit for bit: as stored, and as the pair gives them
        derived = pfender.pfender_bound(cert.phi, cert.c, cert.cos_theta)
        for bound in (cert, derived):
            assert repr(bound.bound_real) == repr(data["bound_real"])
            assert bound.bound_int == data["bound_int"]

    @pytest.mark.parametrize("case", OLD_FILES, ids=str)
    def test_check_theorem_takes_an_old_file(self, tmp_path, capsys, case):
        # the cross polytope of d = 3 (6 points, inner products -1 and 0)
        code = str(tmp_path / "cp3.json")
        assert cli.main(["code", "gen", "--family", "cross_polytope", "--dim", "3",
                         "--out", code]) == 0
        capsys.readouterr()
        path = str(DATA / OLD_FILES[case])
        status = cli.main(["code", "check-theorem", "--file", code, "--cert", path])
        captured = capsys.readouterr()
        if case[1] < 0.0:
            # the code's inner product 0 lies above this cos_theta
            assert status == 2 and "axiom (iv)" in captured.err
        else:
            slack = jsonutil.load_path(path)["bound_int"] - 6
            assert status == 0, captured.err
            assert captured.out.startswith("n=6 ")
            assert captured.out.endswith(f" slack={slack}\n")


class TestFromDiskMutants:
    def test_a_stored_bound_one_above_fails(self, cert_d3, tmp_path):
        data = certificate_to_json_dict(cert_d3)
        data["bound_real"] += 1.0
        path = str(tmp_path / "mutant.json")
        jsonutil.dump_path(path, data)
        report = verify_certificate(certificate_from_json_dict(jsonutil.load_path(path)))
        assert not report.passed
        assert report.messages[0].startswith("bound arithmetic: stored 14.15832976")

    def test_a_nan_bound_is_refused_or_fails(self, cert_d3, tmp_path):
        # the writer refuses to write NaN; a file that holds it does not load
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**certificate_to_json_dict(cert_d3),
                                    "bound_real": math.nan}))
        with pytest.raises(ValueError, match="^bound_real must be finite, got nan$"):
            certificate_from_json_dict(jsonutil.load_path(str(path)))
        # and a NaN bound set on a reloaded certificate fails verification
        bad = _reloaded(cert_d3)
        bad.bound_real = math.nan
        assert not verify_certificate(bad).passed
