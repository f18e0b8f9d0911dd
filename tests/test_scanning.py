"""Grid-plus-refinement scan: soundness against a dense sample, call budget."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds.pfender import PhiSpec
from codebounds.scanning import REFINE_STEPS, chebyshev_points, scan_maximum

DENSE_POINTS = 200_000

intervals = st.tuples(
    st.floats(-1.0, 0.9), st.floats(0.01, 1.9)
).map(lambda t: (t[0], min(t[0] + t[1], 1.0)))
unit_coeffs = st.floats(-1.0, 1.0)


phis = st.one_of(
    st.builds(
        lambda dim, coeffs: PhiSpec("gegenbauer", coeffs, dim=dim),
        st.integers(2, 32),
        st.lists(unit_coeffs, min_size=1, max_size=41),
    ),
    st.builds(
        lambda coeffs: PhiSpec("monomial", coeffs),
        st.lists(unit_coeffs, min_size=1, max_size=12),
    ),
    st.builds(
        lambda values: PhiSpec("table", values),
        st.lists(unit_coeffs, min_size=2, max_size=60),
    ),
)


@given(phi=phis, interval=intervals)
def test_never_below_dense_reference(phi, interval):
    lo, hi = interval
    value, location, _ = scan_maximum(phi, lo, hi, 2048)
    reference = float(np.max(phi(np.linspace(lo, hi, DENSE_POINTS))))
    assert value >= reference - 1e-12
    assert lo <= location <= hi
    # the value was attained at the location (up to batch-dependent rounding)
    assert value == pytest.approx(phi(np.array([location]))[0], rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("maxima", [0, 1, 7, 300])
def test_fn_called_at_most_one_plus_steps_times(maxima):
    calls = []

    def fn(r):
        calls.append(r.shape)
        return np.cos(2.0 * np.pi * maxima * r) if maxima else r

    scan_maximum(fn, 0.0, 1.0, 20000)
    assert len(calls) <= 1 + REFINE_STEPS
    assert all(len(shape) == 1 for shape in calls)


def test_plateau_every_point_a_maximum_still_one_batch_per_step():
    calls = []

    def flat(r):
        calls.append(r.size)
        return np.zeros_like(r)

    value, _, maxima = scan_maximum(flat, -1.0, 0.5, 500)
    assert value == 0.0
    assert len(maxima) == 498
    assert len(calls) == 1 + REFINE_STEPS


def test_refined_maxima_locations():
    # cos(6 pi r) on [0, 1] peaks at 1/3 and 2/3 inside the interval
    fn = lambda r: np.cos(6.0 * np.pi * r)  # noqa: E731
    value, location, maxima = scan_maximum(fn, 0.0, 1.0, 100)
    assert maxima == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert location == 0.0  # first of the tied global maxima, a grid endpoint


def test_degenerate_and_empty_intervals():
    value, location, maxima = scan_maximum(lambda r: r * 2.0, 0.25, 0.25, 100)
    assert (value, location, maxima.tolist()) == (0.5, 0.25, [0.25])
    with pytest.raises(ValueError):
        scan_maximum(lambda r: r, 0.5, 0.25, 100)


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

    value, location, _ = scan_maximum(fn, -1.0, 0.9, 2000)
    assert value == 0.9 and location == 0.9
    assert 0.9 in seen[0]
