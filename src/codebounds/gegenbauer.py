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
    _check_int,
    _check_nonnegative_degree,
    _check_table,
    _point_error,
)

__all__ = [
    "MAX_TABLE_DEGREE",
    "GegenbauerPoly",
    "monomial_table",
    "gegenbauer_eval",
    "basis_values",
    "quadrature_rule",
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
    """Evaluate G_0..G_max_degree at ``r`` via the recursion.

    Returns an array of shape (max_degree + 1,) + shape(r). It checks its
    arguments, then runs ``_recursion`` over r's points in row-major order.
    """
    dim = _check_dim(dim)
    _check_nonnegative_degree(max_degree, "max_degree")
    arr = _check_r(r)
    return _recursion(dim, max_degree, arr.reshape(-1)).reshape(
        (max_degree + 1,) + arr.shape
    )


def _recursion(dim: int, max_degree: int, x: np.ndarray) -> np.ndarray:
    """G_0..G_max_degree at the points of the 1-d float array ``x``, one
    row each, for arguments already checked as ``basis_values`` checks
    them. Each G_k is computed in place in its row, with one scratch row,
    in the operation order of
    ((2k + dim - 4) r G_{k-1} - (k - 1) G_{k-2}) / (k + dim - 3)."""
    rows = np.empty((max_degree + 1, x.size))
    rows[0] = 1.0
    if max_degree >= 1:
        rows[1] = x
    scratch = np.empty_like(x)
    for k in range(2, max_degree + 1):
        row = rows[k]
        # float coefficients and a positional out: the cheapest ufunc calls
        # on the few points of a polynomial's candidates
        np.multiply(x, float(2 * k + dim - 4), row)
        row *= rows[k - 1]
        np.multiply(rows[k - 2], float(k - 1), scratch)
        row -= scratch
        row /= float(k + dim - 3)
    return rows


def _derivative_recursion(dim: int, max_degree: int, x: np.ndarray) -> np.ndarray:
    """G_k, G_k' and G_k'' for k = 0..max_degree at the points of the 1-d
    float array ``x``, shape (max_degree + 1, 3, x.size), for arguments
    already checked. One fused recursion, the three-term one differentiated
    j = 0, 1, 2 times:

        G_k^(j) = ((2k + dim - 4) (r G_{k-1}^(j) + j G_{k-1}^(j-1))
                   - (k - 1) G_{k-2}^(j)) / (k + dim - 3)

    The G_k are ``_recursion``'s bits: the same operations in its order."""
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


def quadrature_rule(dim: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the dimension-``dim`` weight.

    Exact for polynomial integrands of degree <= 2 * n_nodes - 1. By
    Golub & Welsch (Math. Comp. 23, 1969) the nodes are the eigenvalues
    of the weight's Jacobi matrix and each weight is mu_0 v_0^2, from
    the first entry of the eigenvector. The dim = 2 exponent -1/2 is an
    endpoint singularity that this handles natively (nodes stay interior).
    """
    dim = _check_dim(dim)
    if _check_int(n_nodes, "n_nodes") < 1:
        raise ValueError("need at least one quadrature node")
    lam = (dim - 2) / 2.0
    k = np.arange(1.0, n_nodes)
    # squared off-diagonal of the monic recurrence; at dim = 2 the first
    # is 0/0, and the Chebyshev value 1/2 takes its place
    numerator = k * (k + 2 * lam - 1)
    denominator = 4 * (k + lam) * (k + lam - 1)
    beta = np.divide(
        numerator, denominator, out=np.full(n_nodes - 1, 0.5), where=denominator != 0
    )
    # eigh reads the lower triangle only
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(beta), -1))
    # mu_0 is the weight's integral; lgamma, since gamma overflows near dim 340
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(lam + 0.5) - math.lgamma(lam + 1))
    return nodes, mu0 * vectors[0] ** 2


def _as_poly_eval(p, dim: int):
    """Interpret ``p`` as a polynomial; return (evaluator, degree)."""
    if isinstance(p, GegenbauerPoly):
        if p.dim != dim:
            raise ValueError(
                f"polynomial tagged for dimension {p.dim}, inner product uses {dim}"
            )
        return p, p.degree
    coeffs = np.atleast_1d(np.asarray(p, dtype=float))
    if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
        raise ValueError("monomial coefficients must be a finite 1-d vector")
    return (lambda r: _horner(coeffs, r)), len(coeffs) - 1


def weighted_inner_product(p, q, dim: int) -> float:
    """Integral of p(r) q(r) rho(r) over [-1, 1] by fixed Gauss-Jacobi quadrature.

    ``p`` and ``q`` are GegenbauerPoly instances (their dim must match) or
    ascending monomial coefficient vectors. The node count is
    max(64, combined degree + 8), deterministic for a given input, and the
    nodewise products are accumulated with exact summation so that
    orthogonality of high-degree pairs is resolved far below the norms.
    """
    dim = _check_dim(dim)
    p_eval, p_deg = _as_poly_eval(p, dim)
    q_eval, q_deg = _as_poly_eval(q, dim)
    n_nodes = max(64, p_deg + q_deg + 8)
    x, w = quadrature_rule(dim, n_nodes)
    terms = p_eval(x) * q_eval(x) * w
    return math.fsum(np.asarray(terms, dtype=float).tolist())


def expand_in_basis(mono_coeffs, dim: int) -> GegenbauerPoly:
    """Rewrite sum_j b_j r^j as a Gegenbauer combination.

    Each coefficient is the exact one, correctly rounded: the change of
    basis runs in integers (``exact.expand_rounded``). Quadrature
    projection is the independent cross-check used by the test suite,
    not by this routine.
    """
    from . import exact

    b = np.atleast_1d(np.asarray(mono_coeffs, dtype=float))
    if b.ndim != 1 or not b.size:
        raise ValueError("mono_coeffs must be a non-empty 1-d vector")
    dim = _check_table(dim, b.size - 1)[0]
    return GegenbauerPoly(dim, exact.expand_rounded(dim, b.tolist()))
