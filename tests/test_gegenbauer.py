"""Gegenbauer family: recursion, tables, inner products, expansion."""

import copy
import functools
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from codebounds._scalar import gegenbauer_rows
from codebounds.exact import gegenbauer_from_monomial, gegenbauer_table
from codebounds.gegenbauer import (
    GegenbauerPoly,
    _derivative_recursion,
    _horner,
    basis_values,
    expand_in_basis,
    gegenbauer_eval,
    monomial_table,
    weighted_inner_product,
)


@functools.cache
def squared_norm(dim, k):
    """<G_k, G_k>."""
    g_k = GegenbauerPoly(dim, [0.0] * k + [1.0])
    return weighted_inner_product(g_k, g_k, dim)


def projection(mono_coeffs, dim):
    """Independent oracle for expand_in_basis: a_k = <p, G_k> / <G_k, G_k>."""
    return np.array(
        [
            weighted_inner_product(mono_coeffs, GegenbauerPoly(dim, [0.0] * k + [1.0]), dim)
            / squared_norm(dim, k)
            for k in range(len(mono_coeffs))
        ]
    )


class TestEval:
    def test_degree_zero_is_one(self):
        assert gegenbauer_eval(5, 0, -0.3) == 1.0

    def test_degree_one_is_identity(self):
        assert gegenbauer_eval(5, 1, -0.3) == -0.3

    def test_legendre_degree_two(self):
        # hand application of the k=2 recursion for dim 3: (3r^2 - 1)/2
        assert gegenbauer_eval(3, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_value_one_at_one(self):
        assert gegenbauer_eval(9, 7, 1.0) == 1.0

    @pytest.mark.parametrize("shape", [(5,), (2, 3)], ids=str)
    def test_an_array_keeps_its_shape_and_basis_values_bits(self, shape):
        r = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
        values = gegenbauer_eval(7, 4, r)
        assert isinstance(values, np.ndarray) and values.shape == shape
        assert values.tobytes() == basis_values(7, 4, r)[4].tobytes()

    def test_a_0d_array_gives_a_float(self):
        value = gegenbauer_eval(7, 4, np.array(0.3))
        assert type(value) is float and value == basis_values(7, 4, 0.3)[4]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gegenbauer_eval(1, 2, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(3, 2, 1.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(3, -1, 0.5)
        # a float or a bool degree is named, not an unnamed TypeError or degree 1
        for call, name, degree in [
            (lambda k: basis_values(3, k, 0.5), "max_degree", 2.0),
            (lambda k: basis_values(3, k, 0.5), "max_degree", True),
            (lambda k: monomial_table(3, k), "max_degree", 2.0),
            (lambda k: monomial_table(3, k), "max_degree", True),
            (lambda k: gegenbauer_eval(3, k, 0.5), "degree", 2.0),
        ]:
            message = f"^{name} must be an integer, got {degree!r}$"
            with pytest.raises(ValueError, match=message):
                call(degree)
        assert basis_values(3, np.int64(2), 0.5).tolist() == [1.0, 0.5, -0.125]
        # numpy registers its integers as numbers.Integral, which the checks ask for
        assert basis_values(np.uint8(3), 2, 0.5).tolist() == [1.0, 0.5, -0.125]

    @pytest.mark.parametrize(
        "points, message",
        [
            ([0.5, math.nan], "must be finite"),
            ([math.inf, 0.5], "must be finite"),
            ([2.0, -math.inf], "must be finite"),
            ([-1.0000001, 0.5], r"must lie in \[-1, 1\]"),
            (1.5, r"must lie in \[-1, 1\]"),
        ],
    )
    def test_point_errors_name_the_first_failing_check(self, points, message):
        with pytest.raises(ValueError, match=f"evaluation points {message}"):
            basis_values(4, 3, points)

    def test_empty_and_boundary_points(self):
        assert basis_values(4, 3, np.empty(0)).shape == (4, 0)
        assert basis_values(4, 3, [-1.0, 1.0])[:, 1].tolist() == [1.0] * 4

    def test_poly_keeps_the_shape_of_its_points(self):
        poly = GegenbauerPoly(5, [0.5, -0.25, 1.0, 0.125])
        grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        values = poly(grid)
        assert values.shape == (3, 4)
        assert values.tolist() == poly(grid.ravel()).reshape(3, 4).tolist()
        assert poly(grid[1, 2]) == values[1, 2]

    def test_poly_coeffs_are_a_read_only_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        poly = GegenbauerPoly(3, source)
        with pytest.raises(ValueError, match="read-only"):
            poly.coeffs[1] = -5.0
        assert source.flags.writeable
        source[1] = -5.0
        assert poly.coeffs.tolist() == [1.0, 2.0, 3.0]
        twins = (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly)))
        for twin in twins:
            assert twin.coeffs.tolist() == [1.0, 2.0, 3.0]
            assert not twin.coeffs.flags.writeable

    def test_normalization_sweep(self):
        for dim in range(2, 33):
            values = basis_values(dim, 20, np.array([1.0]))
            assert np.max(np.abs(values - 1.0)) <= 1e-12

    def test_recursion_vs_table_agreement(self, rng):
        # Horner's forward-error bound gamma_2k * sum |c_j| |r|^j on the table
        # value, with gamma_n = n u / (1 - n u); the factor 4 covers the
        # recursion's own rounding (worst measured ratio 1.11, dim 2..32).
        unit_roundoff = np.finfo(float).eps / 2
        for _ in range(1000):
            dim = int(rng.integers(2, 33))
            k = int(rng.integers(0, 21))
            r = float(rng.uniform(-1.0, 1.0))
            column = monomial_table(dim, k)[:, k]
            gamma = 2 * k * unit_roundoff / (1.0 - 2 * k * unit_roundoff)
            magnitude = float(np.polynomial.polynomial.polyval(abs(r), np.abs(column)))
            table_value = np.polynomial.polynomial.polyval(r, column)
            gap = abs(table_value - gegenbauer_eval(dim, k, r))
            assert gap <= 4.0 * gamma * magnitude


def reference_basis_values(dim, max_degree, r):
    """The recursion as one expression per degree, with fresh temporaries:
    the oracle that the in-place ``basis_values`` must match bit for bit."""
    arr = np.asarray(r, dtype=float)
    out = np.empty((max_degree + 1,) + arr.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = arr
    for k in range(2, max_degree + 1):
        out[k] = ((2 * k + dim - 4) * arr * out[k - 1] - (k - 1) * out[k - 2]) / (
            k + dim - 3
        )
    return out


_POINTS = np.random.default_rng(11).uniform(-1.0, 1.0, 60)
POINT_SETS = {
    "scalar": -0.3,
    "0-d": np.array(0.7),
    "empty": np.empty(0),
    "1-d": np.concatenate([[-1.0, -0.0, 0.0, 1.0], _POINTS[:20]]),
    "2-d": _POINTS[20:].reshape(8, 5).T,  # a non-contiguous view
}


@pytest.mark.parametrize("points", POINT_SETS.values(), ids=POINT_SETS.keys())
def test_recursion_matches_the_reference_bit_for_bit(points):
    for dim in range(2, 49):
        for degree in range(41):
            values = basis_values(dim, degree, points)
            expected = reference_basis_values(dim, degree, points)
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes(), (dim, degree)


@pytest.mark.parametrize("dim", [2, 3, 8, 24, 199])
def test_derivative_recursion_matches_the_shifted_dimensions(dim):
    # G_k' = k (k + d - 2) / (d - 1) G_{k-1}^(d+2), applied twice for G_k'';
    # the values are the recursion's own bits
    m = 40
    x = np.linspace(-1.0, 1.0, 17)
    fused = _derivative_recursion(dim, m, x)
    assert fused.shape == (m + 1, 3, x.size)
    assert fused[:, 0].tobytes() == basis_values(dim, m, x).tobytes()
    k = np.arange(m + 1.0)[:, None]
    first = k * (k + dim - 2) / (dim - 1)
    second = first * (k - 1) * (k + dim - 1) / (dim + 1)
    for order, shifted in ((1, first[1:] * basis_values(dim + 2, m - 1, x)),
                           (2, second[2:] * basis_values(dim + 4, m - 2, x))):
        assert not fused[:order, order].any()
        scale = np.abs(shifted).max()
        assert np.abs(fused[order:, order] - shifted).max() <= 1e-13 * scale


SPECIAL_POINTS = (-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0)


@given(
    dim=st.integers(2, 10**4),
    degree=st.integers(0, 40),
    x=st.one_of(st.sampled_from(SPECIAL_POINTS), st.floats(-1.0, 1.0)),
)
@example(dim=2, degree=40, x=-1.0)
@example(dim=10**4, degree=40, x=1.0)
@example(dim=3, degree=40, x=0.0)
@example(dim=2, degree=40, x=-5e-324)
@example(dim=10**4, degree=40, x=5e-324)
@example(dim=5, degree=0, x=0.5)
def test_point_values_match_basis_values_bit_for_bit(dim, degree, x):
    # the recursion on a float into a list, and on an array of that one
    # point: the same operations in the same order, so the same bits
    values = gegenbauer_rows(dim, degree, x, [0.0] * (degree + 1))
    assert len(values) == degree + 1
    assert all(type(value) is float for value in values)
    rows = gegenbauer_rows(dim, degree, np.array([x]), np.empty((degree + 1, 1)))
    assert np.array(values).tobytes() == rows.tobytes()
    assert np.array(values).tobytes() == basis_values(dim, degree, x).tobytes()


@given(
    coeffs=st.lists(
        st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=41,
    ),
    x=st.lists(
        st.one_of(st.sampled_from(SPECIAL_POINTS), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=16,
    ),
)
@example(coeffs=[-0.0], x=[-1.0, -0.0, 0.0, 1.0])
@example(coeffs=[0.0, -0.0, -0.0], x=[-5e-324, -0.0, 5e-324])
@example(coeffs=[-0.0] + [1e6] * 40, x=[-1.0, 1.0, -2.2250738585072014e-308])
def test_horner_gives_the_bits_of_polyval(coeffs, x):
    # degrees 0..40, signed zeros and subnormals: the same operations in
    # the same order, so the same bits, signs of zero included
    points = np.array(x)
    expected = np.polynomial.polynomial.polyval(points, np.array(coeffs))
    for given_coeffs in (coeffs, np.array(coeffs)):
        assert _horner(given_coeffs, points).tobytes() == expected.tobytes()


class TestBasisTables:
    def test_table_shapes_and_leading_coeff(self):
        # column k holds G_k's coefficients: degree exactly k
        table = monomial_table(7, 12)
        assert table.shape == (13, 13)
        assert np.array_equal(np.triu(table), table)
        assert np.all(np.diag(table) > 0.0)

    def test_table_normalized_at_one(self):
        # G_k(1) is the sum of column k
        for dim in (2, 3, 8, 24):
            at_one = monomial_table(dim, 20).sum(axis=0)
            assert at_one == pytest.approx(np.ones(21), abs=1e-10)

    def test_tables_are_the_exact_tables_correctly_rounded(self):
        # G_k = T_k / D_k exactly, and int / int rounds correctly
        for dim in [*range(2, 25), 1000, 2**52]:
            table = monomial_table(dim, 40)
            assert table.dtype == np.float64 and table.flags.c_contiguous
            T, D = gegenbauer_table(dim, 40)
            for k, (T_k, D_k) in enumerate(zip(T, D)):
                column = [c / D_k for c in T_k] + [0.0] * (40 - k)
                assert table[:, k].tolist() == column, (dim, k)

    def test_degree_cap(self):
        assert monomial_table(3, 40).shape == (41, 41)
        with pytest.raises(ValueError, match="capped at degree 40"):
            monomial_table(3, 41)
        with pytest.raises(ValueError, match="capped at degree 40"):
            expand_in_basis(np.ones(42), 3)


class TestInnerProduct:
    def test_distinct_degrees_orthogonal(self):
        ip = weighted_inner_product(
            GegenbauerPoly(4, [0.0, 1.0]), GegenbauerPoly(4, [0.0, 0.0, 1.0]), 4
        )
        assert ip == 0.0

    def test_constant_dim3(self):
        # weight exponent 0: integral of 1 over [-1, 1]
        one = GegenbauerPoly(3, [1.0])
        assert weighted_inner_product(one, one, 3) == pytest.approx(2.0, abs=1e-10)

    def test_constant_dim5(self):
        # analytic oracle: integral of (1 - r^2) over [-1, 1] is 4/3
        one = GegenbauerPoly(5, [1.0])
        assert weighted_inner_product(one, one, 5) == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_monomial_inputs(self):
        # integral of r^2 dr over [-1, 1] = 2/3 at dim 3
        assert weighted_inner_product([0.0, 1.0], [0.0, 1.0], 3) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_inner_product(
                GegenbauerPoly(3, [1.0]), GegenbauerPoly(4, [1.0]), 3
            )

    @pytest.mark.parametrize("dim", [2, 3, 8, 24, 100, 1000])
    def test_distinct_degrees_are_exactly_orthogonal(self, dim):
        basis = [GegenbauerPoly(dim, [0.0] * k + [1.0]) for k in range(21)]
        for j, k in itertools.combinations(range(21), 2):
            assert weighted_inner_product(basis[j], basis[k], dim) == 0.0, (j, k)

    @pytest.mark.parametrize("dim", [2, 3, 8, 24, 100, 1000])
    def test_norms_match_the_spherical_harmonics(self, dim):
        # |G_k|^2 / |G_0|^2 = 1 / N(dim, k), N the dimension of the degree-k
        # spherical harmonics on S^(dim-1)
        g_0 = GegenbauerPoly(dim, [1.0])
        norm_0 = weighted_inner_product(g_0, g_0, dim)
        for k in range(1, 41):
            g_k = GegenbauerPoly(dim, [0.0] * k + [1.0])
            harmonics = math.comb(k + dim - 1, dim - 1) - math.comb(k + dim - 3, dim - 1)
            ratio = weighted_inner_product(g_k, g_k, dim) / norm_0 * harmonics
            assert abs(ratio - 1.0) <= 4 * math.ulp(1.0), k

    @pytest.mark.parametrize("dim", [5, 101, 1001])
    def test_mu_0_keeps_its_stated_error(self, dim):
        # mu_0 from lgamma, against the exact 2 prod (j - 3)/(j - 2) over
        # j = 5, 7, ..., dim: within the docstring's 2e-16 dim ln(dim)
        exact_mu_0 = Fraction(2)
        for j in range(5, dim + 1, 2):
            exact_mu_0 *= Fraction(j - 3, j - 2)
        mu_0 = weighted_inner_product([1.0], [1.0], dim)
        assert abs(Fraction(mu_0) / exact_mu_0 - 1) <= 2e-16 * dim * math.log(dim)

    def test_a_result_past_the_float_range_is_rejected(self):
        big = [1e300, 0.0, 1e300]
        with pytest.raises(ValueError, match="past the float range"):
            weighted_inner_product(big, big, 3)

    def test_monomial_input_errors(self):
        for bad in ([1.0, math.nan], [[1.0, 2.0]], [math.inf]):
            with pytest.raises(ValueError, match="finite 1-d vector"):
                weighted_inner_product(bad, [1.0], 3)


class TestExpansion:
    def test_linear(self):
        poly = expand_in_basis([0.0, 1.0], 7)
        assert np.allclose(poly.coeffs, [0.0, 1.0], atol=1e-15)

    def test_r_squared_dim3(self):
        # hand inversion of the triangular system with G_2 = (3r^2 - 1)/2
        poly = expand_in_basis([0.0, 0.0, 1.0], 3)
        assert poly.coeffs == pytest.approx([1.0 / 3.0, 0.0, 2.0 / 3.0], abs=1e-14)

    def test_classical_degree6_certificate(self):
        # (t+1)(t+1/2)^2 t^2 (t-1/2) has nonnegative coefficients at dim 8
        p = np.array([1.0])
        for root, mult in [(-1.0, 1), (-0.5, 2), (0.0, 2), (0.5, 1)]:
            for _ in range(mult):
                p = np.convolve(p, [-root, 1.0])
        poly = expand_in_basis(p, 8)
        assert poly.coeffs[0] > 0.0
        assert np.all(poly.coeffs >= 0.0)
        oracle = projection(p, 8)
        assert np.max(np.abs(poly.coeffs - oracle)) <= 1e-10

    def test_round_trip_sample_points(self, rng):
        r = np.linspace(-1.0, 1.0, 100)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            deg = int(rng.integers(0, 9))
            mono = rng.uniform(-2.0, 2.0, deg + 1)
            poly = expand_in_basis(mono, dim)
            direct = np.polynomial.polynomial.polyval(r, mono)
            assert np.max(np.abs(poly(r) - direct)) <= 1e-10

    def test_projection_cross_check(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 10))
            deg = int(rng.integers(1, 7))
            mono = rng.uniform(-1.0, 1.0, deg + 1)
            solved = expand_in_basis(mono, dim).coeffs
            projected = projection(mono, dim)
            assert np.max(np.abs(solved - projected)) <= 1e-10

    @pytest.mark.parametrize("dims", [range(2, 9), [24], [50], [100], [1000]], ids=str)
    def test_projection_cross_check_at_high_degree(self, rng, dims):
        for degree in range(20, 41):
            dim = int(rng.choice(dims))
            mono = rng.uniform(-1.0, 1.0, degree + 1)
            solved = expand_in_basis(mono, dim).coeffs
            projected = projection(mono, dim)
            close = np.abs(solved - projected) <= 1e-15 * np.abs(solved)
            assert close.all(), (degree, dim)

    @pytest.mark.parametrize("dim", [2, 3, 8, 24, 100, 200])
    def test_expansion_matches_exact_rationals(self, rng, dim):
        # the exact expansion, each a_k correctly rounded (Fraction.__float__)
        for degree in (0, 1, 20, 30, 40):
            mono = rng.uniform(-1.0, 1.0, degree + 1)
            exact = gegenbauer_from_monomial(dim, mono.tolist())
            assert expand_in_basis(mono, dim).coeffs.tolist() == list(map(float, exact))


class TestPositiveDefiniteness:
    def test_random_unit_vector_sets(self, rng):
        # kernel double sums must be (numerically) nonnegative on spheres
        for _ in range(200):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, 51))
            vectors = rng.normal(size=(n, d))
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            gram = np.clip(vectors @ vectors.T, -1.0, 1.0)
            table = basis_values(d, 8, gram.ravel())
            for k in range(9):
                assert float(table[k].sum()) >= -1e-8 * n * n


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=12))
def test_value_at_one_property(dim, k):
    assert gegenbauer_eval(dim, k, 1.0) == pytest.approx(1.0, abs=1e-12)


@given(
    st.integers(min_value=2, max_value=10),
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=7,
    ),
)
def test_expansion_round_trip_property(dim, mono):
    poly = expand_in_basis(mono, dim)
    r = np.linspace(-1.0, 1.0, 33)
    direct = np.polynomial.polynomial.polyval(r, np.array(mono))
    scale = 1.0 + np.max(np.abs(np.array(mono)))
    assert np.max(np.abs(poly(r) - direct)) <= 1e-10 * scale
