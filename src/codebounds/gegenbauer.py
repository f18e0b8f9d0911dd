"""Gegenbauer polynomial family normalized to G_k(1) = 1.

The family for ambient dimension ``dim`` is defined by the recursion

    G_0(r) = 1,  G_1(r) = r,
    G_k(r) = ((2k + dim - 4) r G_{k-1}(r) - (k - 1) G_{k-2}(r)) / (k + dim - 3)

and is orthogonal on [-1, 1] under the weight (1 - r^2)^((dim-3)/2).
For dim = 3 these are the Legendre polynomials, for dim = 2 the Chebyshev
polynomials of the first kind. On the sphere S^{dim-1} each G_k is a
positive-definite kernel, which is what makes them usable in linear
programming bounds for codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._immutable import Rebuilt, float_array, read_only
from ._scalar import (
    MAX_TABLE_DEGREE,
    _check_dim,
    _check_nonnegative_degree,
    _check_table,
    _point_error,
    gegenbauer_rows,
)

__all__ = [
    "MAX_TABLE_DEGREE",
    "GegenbauerPoly",
    "monomial_table",
    "gegenbauer_eval",
    "basis_values",
    "weighted_inner_product",
    "expand_in_basis",
]


def _check_r(r):
    arr = np.asarray(r, dtype=float)
    # one min/max pass; NaN fails both comparisons
    if arr.size and not (arr.min() >= -1.0 and arr.max() <= 1.0):
        raise _point_error(bool(np.all(np.isfinite(arr))))
    return arr


def basis_values(dim: int, max_degree: int, r) -> np.ndarray:
    """G_0..G_max_degree at ``r``, an array of shape (max_degree + 1,) +
    shape(r): the arguments checked, then ``_scalar.gegenbauer_rows``."""
    dim = _check_dim(dim)
    max_degree = _check_nonnegative_degree(max_degree, "max_degree")
    x = _check_r(r)
    return gegenbauer_rows(dim, max_degree, x, np.empty((max_degree + 1,) + x.shape))


def _derivative_recursion(dim: int, max_degree: int, x: np.ndarray) -> np.ndarray:
    """G_k, G_k' and G_k'' for k = 0..max_degree at the points of the 1-d
    float array ``x``, shape (max_degree + 1, 3, x.size), for arguments
    already checked. One fused recursion, the three-term one differentiated
    j = 0, 1, 2 times:

        G_k^(j) = ((2k + dim - 4) (r G_{k-1}^(j) + j G_{k-1}^(j-1))
                   - (k - 1) G_{k-2}^(j)) / (k + dim - 3)

    The G_k are ``gegenbauer_rows``' bits: the same operations in its order."""
    out = np.zeros((max_degree + 1, 3, x.size))
    out[0, 0] = 1.0
    if max_degree >= 1:
        out[1, 0] = x
        out[1, 1] = 1.0
    up = np.array([float(2 * k + dim - 4) for k in range(max_degree + 1)])
    scaled_x = np.multiply.outer(up, x)
    # the j G_{k-1}^(j-1) terms of the derivatives, times 2k + dim - 4
    carries = up[:, None, None] * np.array([[1.0], [2.0]])
    for k in range(2, max_degree + 1):
        row, previous = out[k], out[k - 1]
        np.multiply(scaled_x[k], previous, row)
        row[1:] += carries[k] * previous[:-1]
        row -= out[k - 2] * float(k - 1)
        row /= float(k + dim - 3)
    return out


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k at the points of the float array ``x``, by
    Horner's rule in the operations and order of numpy's ``polyval``
    (c[-1] + x * 0, then c_k + c0 * x for each lower k), so the values are
    its bits, without importing ``numpy.polynomial`` or paying its
    per-call argument handling."""
    out = x * 0.0
    out += coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def gegenbauer_eval(dim: int, k: int, r):
    """G_k for dimension ``dim`` at ``r`` (scalar or array) by recursion."""
    _check_nonnegative_degree(k)
    values = basis_values(dim, k, r)[k]
    if np.isscalar(r) or np.asarray(r).shape == ():
        return float(values)
    return values


def monomial_table(dim: int, max_degree: int) -> np.ndarray:
    """Upper-triangular (m+1) x (m+1) matrix whose column k holds G_k's
    ascending monomial coefficients, T_k[j] / D_k of the integer table
    ``exact.gegenbauer_table``, each correctly rounded."""
    from . import exact

    T, D = exact.gegenbauer_table(*_check_table(dim, max_degree))
    table = np.zeros((len(T), len(T)))
    for k, (T_k, D_k) in enumerate(zip(T, D)):
        table[: k + 1, k] = [c / D_k for c in T_k]
    return table


@dataclass(frozen=True, eq=False)
class GegenbauerPoly(Rebuilt):
    """A polynomial stored by its coefficients in the Gegenbauer basis.

    Represents sum_k coeffs[k] * G_k^{(dim)}(r). ``coeffs`` is a read-only
    copy, in copies and pickles too, so a certificate's polynomial cannot
    change under its report.
    """

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        arr = np.atleast_1d(float_array(self.coeffs, "coeffs"))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", read_only(arr))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        values = basis_values(self.dim, self.degree, arr.reshape(-1))
        out = (self.coeffs @ values).reshape(arr.shape)
        if arr.shape == ():
            return float(out)
        return out

    def at_one(self) -> float:
        """Value at r = 1; every G_k(1) equals 1, so this is the coefficient sum."""
        return float(math.fsum(self.coeffs.tolist()))


def weighted_inner_product(p, q, dim: int) -> float:
    """Integral of p(r) q(r) (1 - r^2)^((dim-3)/2) over [-1, 1].

    ``p`` and ``q`` are GegenbauerPoly instances (their dim must match) or
    ascending monomial coefficient vectors, each taken exactly. Their
    product's mean under the weight is exact (``exact.weighted_mean``), and
    the weight's integral mu_0 times it is rounded once, so <G_j, G_k> is
    exactly 0.0 for j != k. A result past the float range raises ValueError.

    mu_0 is from lgamma (gamma overflows near dim 340). Its relative error,
    within 2e-16 dim ln(dim), passes to the result (against the exact mu_0
    of an odd dim: 5.6e-16 at dim 5, 2.6e-14 at 101, 7.6e-14 at 1001 and
    9.4e-12 at 10001), but not to a projection, a ratio of two results.
    """
    from fractions import Fraction

    from . import exact

    dim = _check_dim(dim)

    def integer_polynomial(x):
        """(c, scale): x = scale * sum_j c_j r^j, integers c_j, exactly."""
        if isinstance(x, GegenbauerPoly):
            if x.dim != dim:
                raise ValueError(
                    f"polynomial tagged for dimension {x.dim}, inner product uses {dim}"
                )
            return exact.integer_polynomial(dim, x.coeffs.tolist())
        coeffs = np.atleast_1d(np.asarray(x, dtype=float))
        if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
            raise ValueError("monomial coefficients must be a finite 1-d vector")
        c, den = exact.integer_ratios(coeffs.tolist())
        return c, Fraction(1, den)

    (a, a_scale), (b, b_scale) = map(integer_polynomial, (p, q))
    product = np.convolve(np.array(a, dtype=object), np.array(b, dtype=object))
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma((dim - 1) / 2) - math.lgamma(dim / 2))
    mean = exact.weighted_mean(dim, product.tolist()) * a_scale * b_scale
    try:
        return float(Fraction(mu0) * mean)
    except OverflowError:
        raise ValueError("the inner product is past the float range") from None


def expand_in_basis(mono_coeffs, dim: int) -> GegenbauerPoly:
    """Rewrite sum_j b_j r^j as a Gegenbauer combination.

    Each coefficient is the exact one, correctly rounded: the change of
    basis runs in integers (``exact.expand_rounded``). Projection by
    ``weighted_inner_product``, from the weight's exact moments, is the
    test suite's cross-check, not used by this routine.
    """
    from . import exact

    b = np.atleast_1d(np.asarray(mono_coeffs, dtype=float))
    if b.ndim != 1 or not b.size:
        raise ValueError("mono_coeffs must be a non-empty 1-d vector")
    dim = _check_table(dim, b.size - 1)[0]
    return GegenbauerPoly(dim, exact.expand_rounded(dim, b.tolist()))
