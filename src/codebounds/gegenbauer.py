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
from dataclasses import dataclass, field

import numpy as np

MAX_TABLE_DEGREE = 40

__all__ = [
    "MAX_TABLE_DEGREE",
    "GegenbauerBasis",
    "GegenbauerPoly",
    "gegenbauer_eval",
    "basis_values",
    "quadrature_rule",
    "weighted_inner_product",
    "expand_in_basis",
]


def _check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def _check_r(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    return arr


def basis_values(dim: int, max_degree: int, r) -> np.ndarray:
    """Evaluate G_0..G_max_degree at ``r`` via the recursion.

    Returns an array of shape (max_degree + 1,) + shape(r).
    """
    dim = _check_dim(dim)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    arr = _check_r(r)
    out = np.empty((max_degree + 1,) + arr.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = arr
    for k in range(2, max_degree + 1):
        out[k] = ((2 * k + dim - 4) * arr * out[k - 1] - (k - 1) * out[k - 2]) / (
            k + dim - 3
        )
    return out


def gegenbauer_eval(dim: int, k: int, r):
    """G_k for dimension ``dim`` at ``r`` (scalar or array) by recursion."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    values = basis_values(dim, k, r)[k]
    if np.isscalar(r) or np.asarray(r).shape == ():
        return float(values)
    return values


def _monomial_tables(dim: int, max_degree: int) -> tuple[np.ndarray, ...]:
    # ascending monomial coefficients of each G_k, by the same recursion
    tables = [np.array([1.0]), np.array([0.0, 1.0])]
    for k in range(2, max_degree + 1):
        shifted = np.concatenate(([0.0], tables[k - 1])) * (2 * k + dim - 4)
        lower = np.concatenate((tables[k - 2], [0.0, 0.0])) * (k - 1)
        tables.append((shifted - lower) / (k + dim - 3))
    return tuple(t for t in tables[: max_degree + 1])


@dataclass(frozen=True)
class GegenbauerBasis:
    """Monomial coefficient tables for G_0..G_max_degree in one dimension."""

    dim: int
    max_degree: int
    monomial_tables: tuple[np.ndarray, ...] = field(repr=False, default=())

    def __post_init__(self):
        _check_dim(self.dim)
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.max_degree > MAX_TABLE_DEGREE:
            raise ValueError(
                f"monomial tables are capped at degree {MAX_TABLE_DEGREE}"
            )
        if not self.monomial_tables:
            object.__setattr__(
                self, "monomial_tables", _monomial_tables(self.dim, self.max_degree)
            )

    def monomial_coeffs(self, k: int) -> np.ndarray:
        """Ascending monomial coefficients of G_k (length k + 1)."""
        if not 0 <= k <= self.max_degree:
            raise ValueError(f"degree {k} outside table range 0..{self.max_degree}")
        return self.monomial_tables[k].copy()

    def eval_table(self, k: int, r):
        """Evaluate G_k from its monomial table (Horner); cross-checks the recursion."""
        if not 0 <= k <= self.max_degree:
            raise ValueError(f"degree {k} outside table range 0..{self.max_degree}")
        arr = _check_r(r)
        return np.polynomial.polynomial.polyval(arr, self.monomial_tables[k])


@dataclass(frozen=True)
class GegenbauerPoly:
    """A polynomial stored by its coefficients in the Gegenbauer basis.

    Represents sum_k coeffs[k] * G_k^{(dim)}(r).
    """

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, r):
        values = basis_values(self.dim, self.degree, r)
        out = np.tensordot(self.coeffs, values, axes=(0, 0))
        if np.isscalar(r) or np.asarray(r).shape == ():
            return float(out)
        return out

    def at_one(self) -> float:
        """Value at r = 1; every G_k(1) equals 1, so this is the coefficient sum."""
        return float(math.fsum(self.coeffs.tolist()))


def quadrature_rule(dim: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the dimension-``dim`` weight.

    Exact for polynomial integrands of degree <= 2 * n_nodes - 1. The
    dim = 2 exponent -1/2 is an endpoint singularity that Gauss-Jacobi
    handles natively (nodes stay interior).
    """
    from scipy.special import roots_jacobi  # lazy: keeps CLI start-up fast

    dim = _check_dim(dim)
    if n_nodes < 1:
        raise ValueError("need at least one quadrature node")
    a = (dim - 3) / 2.0
    return roots_jacobi(n_nodes, a, a)


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
    return (lambda r: np.polynomial.polynomial.polyval(r, coeffs)), len(coeffs) - 1


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

    Solves the upper-triangular change-of-basis system built from the
    monomial tables (degree of G_k is exactly k, with positive leading
    coefficient). Quadrature projection is the independent cross-check
    used by the test suite, not by this routine.
    """
    dim = _check_dim(dim)
    b = np.atleast_1d(np.asarray(mono_coeffs, dtype=float))
    if b.ndim != 1 or b.size == 0:
        raise ValueError("mono_coeffs must be a non-empty 1-d vector")
    if not np.all(np.isfinite(b)):
        raise ValueError("mono_coeffs must be finite")
    m = len(b) - 1
    if m > MAX_TABLE_DEGREE:
        raise ValueError(f"expansion is capped at degree {MAX_TABLE_DEGREE}")
    basis = GegenbauerBasis(dim, m)
    system = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        table = basis.monomial_tables[k]
        system[: len(table), k] = table
    return GegenbauerPoly(dim, np.linalg.solve(system, b))
