"""Polynomial maxima from the critical points of P': soundness against a
dense sample, degenerate degrees, exact table maxima, and the closed-form
derivative against numpy's least-squares fit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds.dgs_bound import lp_bound
from codebounds.pfender import PhiSpec, interval_margin
from codebounds.scanning import chebyshev_points, critical_points, derivative_matrix

cheb = np.polynomial.chebyshev

DENSE_POINTS = 200_000

intervals = st.tuples(
    st.floats(-1.0, 0.9), st.floats(0.01, 1.9)
).map(lambda t: (t[0], min(t[0] + t[1], 1.0)))
unit_coeffs = st.floats(-1.0, 1.0)


polynomial_phis = st.one_of(
    st.builds(
        lambda dim, coeffs: PhiSpec("gegenbauer", coeffs, dim=dim),
        st.integers(2, 32),
        st.lists(unit_coeffs, min_size=1, max_size=41),
    ),
    st.builds(
        lambda coeffs: PhiSpec("monomial", coeffs),
        st.lists(unit_coeffs, min_size=1, max_size=12),
    ),
)


def scan_maximum(fn, degree, lo, hi):
    """(value, location, critical points) of the maximum on [lo, hi] of
    ``fn``, a vectorized polynomial of degree at most ``degree``: fn at
    lo, hi and the critical points from its degree + 1 samples, the first
    maximum winning, as lp_bound and interval_margin take it."""
    samples = np.asarray(fn(chebyshev_points(lo, hi, degree + 1)), dtype=float)
    critical = critical_points(samples, lo, hi)
    candidates = np.concatenate(([lo, hi], critical))
    values = np.asarray(fn(candidates), dtype=float)
    best = int(np.argmax(values))
    return float(values[best]), float(candidates[best]), critical


def _maximum(phi, lo, hi):
    return scan_maximum(phi, len(phi.coeffs) - 1, lo, hi)


@given(phi=polynomial_phis, interval=intervals)
def test_never_below_dense_reference(phi, interval):
    lo, hi = interval
    value, location, critical = _maximum(phi, lo, hi)
    reference = float(np.max(phi(np.linspace(lo, hi, DENSE_POINTS))))
    assert value >= reference - 1e-12
    assert lo <= location <= hi
    assert np.all((lo <= critical) & (critical <= hi))
    # the value is phi itself at the location, not the interpolant
    assert value == pytest.approx(phi(np.array([location]))[0], rel=1e-13, abs=1e-13)


@given(
    values=st.lists(unit_coeffs, min_size=2, max_size=60),
    cos_theta=st.floats(-1.0, 0.99),
    c=st.floats(0.0, 1.0),
)
def test_table_margin_never_below_dense_reference(values, cos_theta, c):
    phi = PhiSpec("table", values)
    margin, location = interval_margin(phi, c, cos_theta)
    reference = float(np.max(phi(np.linspace(-1.0, cos_theta, DENSE_POINTS)))) + c
    assert margin >= reference
    assert -1.0 <= location <= cos_theta
    assert margin == phi(location) + c


def test_table_single_positive_node_is_reported_exactly():
    values = np.full(21, -1.0)
    values[7] = 0.25  # the node at -0.3, inside [-1, 0.5]
    margin, location = interval_margin(PhiSpec("table", values), 0.0, 0.5)
    assert (margin, location) == (0.25, np.linspace(-1.0, 1.0, 21)[7])


@pytest.mark.parametrize(
    "phi, expected",
    [
        # leading coefficients that are exactly zero
        (PhiSpec("monomial", [0.5, 0.0, 0.0]), 0.5),
        (PhiSpec("gegenbauer", [0.2, 0.3, 0.0, 0.0, 0.0], dim=3), 0.2 + 0.3 * 0.5),
        (PhiSpec("monomial", [-0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-300]), -0.25),
        # degree 0 and 1
        (PhiSpec("monomial", [0.7]), 0.7),
        (PhiSpec("gegenbauer", [-0.1], dim=8), -0.1),
        (PhiSpec("monomial", [0.1, -2.0]), 2.1),
        (PhiSpec("gegenbauer", [0.1, 2.0], dim=8), 1.1),
    ],
    ids=str,
)
def test_low_and_padded_degrees(phi, expected):
    value, location, _ = _maximum(phi, -1.0, 0.5)
    assert value == pytest.approx(expected, abs=1e-15)
    assert -1.0 <= location <= 0.5


def test_critical_points_of_a_chebyshev_polynomial():
    # T_5 has its interior extrema at cos(k pi / 5), k = 1..4
    t5 = PhiSpec("monomial", [0.0, 5.0, 0.0, -20.0, 0.0, 16.0])
    value, location, critical = _maximum(t5, -1.0, 1.0)
    expected = np.sort(np.cos(np.pi * np.arange(1, 5) / 5))
    assert critical == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_flat_maximum_of_a_triple_critical_point():
    # P = -(r - 0.3)^4: P' has a triple root at 0.3, where P peaks at 0
    quartic = PhiSpec("monomial", np.polynomial.polynomial.polyfromroots([0.3] * 4) * -1)
    value, location, _ = _maximum(quartic, -1.0, 0.9)
    assert value >= -1e-12
    assert location == pytest.approx(0.3, abs=1e-3)


def test_degenerate_and_empty_intervals():
    value, location, critical = scan_maximum(lambda r: r * 2.0, 3, 0.25, 0.25)
    assert (value, location, critical.tolist()) == (0.5, 0.25, [])
    with pytest.raises(ValueError):
        critical_points(np.zeros(4), 0.5, 0.25)


@pytest.mark.parametrize("n", [2, 3, 8, 2000, 20000])
@pytest.mark.parametrize("lo, hi", [(-1.0, 0.9), (-1.0, 0.5), (-0.3, 0.7)])
def test_chebyshev_points_hit_both_endpoints_exactly(lo, hi, n):
    points = chebyshev_points(lo, hi, n)
    assert points[0] == lo
    assert points[-1] == hi
    assert np.all(np.diff(points) > 0.0)


def test_scan_evaluates_the_right_endpoint_itself():
    seen = []

    def fn(r):
        seen.append(r)
        return r

    value, location, _ = scan_maximum(fn, 5, -1.0, 0.9)
    assert value == 0.9 and location == 0.9
    assert 0.9 in seen[-1]


def _lobatto(m):
    # the points of chebyshev_points(-1, 1, m + 1), as chebfit's abscissae
    return -np.cos(np.pi * np.arange(m + 1) / m)


def _assert_matches_least_squares(samples):
    m = len(samples) - 1
    reference = cheb.chebder(cheb.chebfit(_lobatto(m), samples, m))
    derivative = derivative_matrix(m) @ samples
    assert np.max(np.abs(derivative - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("m", range(2, 41))
def test_derivative_matches_least_squares_on_random_series(m, rng):
    for scale in (1.0, 1e5, 1e11):
        coeffs = scale * rng.standard_normal(m + 1)
        _assert_matches_least_squares(cheb.chebval(_lobatto(m), coeffs))


@pytest.mark.parametrize(
    "case", [(3, 0.5, 10), (24, 0.5, 20), (24, 0.7, 30), (60, 0.5, 36)], ids=str
)
def test_derivative_matches_least_squares_on_lp_bound_polynomials(case):
    # P(1) runs from 13 to 5.1e10 over these cases
    _, cos_theta, degree = case
    poly = lp_bound(*case).poly
    _assert_matches_least_squares(poly(chebyshev_points(-1.0, cos_theta, degree + 1)))


@pytest.mark.parametrize("m", range(2, 41))
def test_critical_points_of_t_m_are_its_extrema(m):
    samples = cheb.chebval(chebyshev_points(-1.0, 1.0, m + 1), np.eye(m + 1)[m])
    expected = np.sort(np.cos(np.pi * np.arange(1, m) / m))
    assert critical_points(samples, -1.0, 1.0) == pytest.approx(expected, abs=1e-12)


def test_derivative_matrix_is_cached_and_read_only():
    matrix = derivative_matrix(7)
    assert derivative_matrix(7) is matrix
    assert matrix.shape == (7, 8)
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 1.0
