"""The home of the input checks, which the CLI, the JSON readers and
the library share, and the one-point Gegenbauer recursion and the
monomial -> Gegenbauer expansion, in plain Python. ``cli`` runs them
without importing a module that needs numpy, so ``gegenbauer eval``,
``gegenbauer expand`` and a bad ``bound lp`` argument cost no numpy
import (``gegenbauer.monomial_table`` and ``expand_in_basis`` wrap these
lists in arrays); the integer checks accept numpy integers through
``numbers.Integral``, with which numpy registers its integer types."""

from __future__ import annotations

import math
import sys
from numbers import Integral

MAX_TABLE_DEGREE = 40


def _check_int(value, name: str) -> int:
    """``value`` as an int. A bool or a non-integer (2.0, say) raises
    ValueError naming ``name``, where int(...) would truncate 8.7 and take
    True as 1."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_dim(dim, low: int = 2, name: str = "dimension") -> int:
    """``dim`` as an int if it is an integer >= ``low`` that a float can
    hold (the Gegenbauer recursion computes with float(dim)); anything
    else raises ValueError naming ``name``."""
    if isinstance(dim, bool) or not isinstance(dim, Integral) or dim < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {dim!r}")
    if dim > sys.float_info.max:
        bits = int(dim).bit_length()
        raise ValueError(f"{name} must be at most {sys.float_info.max!r}, "
                         f"got an integer of {bits} bits")
    return int(dim)


def _check_nonnegative_degree(degree, name: str = "degree") -> int:
    """``degree`` as an int if it is an integer >= 0, else ValueError
    naming ``name``."""
    degree = _check_int(degree, name)
    if degree < 0:
        raise ValueError(f"{name} must be >= 0")
    return degree


def _point_error(finite: bool) -> ValueError:
    """The error for evaluation points outside [-1, 1]: ``finite`` says
    whether all of them are finite."""
    if not finite:
        return ValueError("evaluation points must be finite")
    return ValueError("evaluation points must lie in [-1, 1]")


def _check_point(x: float) -> float:
    """``x`` if it lies in [-1, 1]; NaN, an infinity or another float
    raises ``gegenbauer._check_r``'s ValueError."""
    if not -1.0 <= x <= 1.0:
        raise _point_error(math.isfinite(x))
    return x


def _validate_inputs(d: int, cos_theta: float, degree: int):
    """``dgs_bound.lp_bound``'s argument checks."""
    _check_dim(d)
    if not (-1.0 <= cos_theta < 1.0):
        raise ValueError(f"cos_theta must lie in [-1, 1), got {cos_theta}")
    if _check_nonnegative_degree(degree) > MAX_TABLE_DEGREE:
        raise ValueError(f"degree is capped at {MAX_TABLE_DEGREE}")


def _point_values(dim: int, max_degree: int, x: float) -> list[float]:
    """G_0..G_max_degree at the one float ``x``, which the caller has
    checked as ``basis_values`` would, in Python floats. Each step is the
    same IEEE operation, in the same order, as in ``gegenbauer._recursion``,
    so the values are the same bits, without numpy's cost per call."""
    values = [1.0, x]
    for k in range(2, max_degree + 1):
        values.append(
            (x * float(2 * k + dim - 4) * values[k - 1] - values[k - 2] * float(k - 1))
            / float(k + dim - 3)
        )
    return values[: max_degree + 1]


def monomial_table(dim: int, max_degree: int) -> list[list[float]]:
    """The upper-triangular (m+1) x (m+1) table, as a list of rows, whose
    column k holds G_k's ascending monomial coefficients. Column k is
    ((2k + dim - 4) r G_{k-1} - (k - 1) G_{k-2}) / (k + dim - 3), one
    multiply, subtract and divide per entry in that order, over every row
    (the zeros below the diagonal included)."""
    dim = _check_dim(dim)
    if _check_nonnegative_degree(max_degree, "max_degree") > MAX_TABLE_DEGREE:
        raise ValueError(f"monomial tables are capped at degree {MAX_TABLE_DEGREE}")
    n = max_degree + 1
    columns = [[1.0] + [0.0] * max_degree]
    if max_degree >= 1:
        columns.append([0.0, 1.0] + [0.0] * (max_degree - 1))
    for k in range(2, n):
        up, down, scale = float(2 * k + dim - 4), float(k - 1), float(k + dim - 3)
        g1, g2 = columns[k - 1], columns[k - 2]
        # the r^0 entry of r G_{k-1} is 0.0
        columns.append(
            [((g1[i - 1] * up if i else 0.0) - g2[i] * down) / scale for i in range(n)]
        )
    return [list(row) for row in zip(*columns)]


def expand_in_basis(mono_coeffs: list[float], dim: int) -> list[float]:
    """The Gegenbauer coefficients a_0..a_m of sum_j b_j r^j, for the
    Python floats ``mono_coeffs`` = b_0..b_m: the solution of
    ``monomial_table(dim, m)`` a = b by back-substitution, column by
    column from a_m (divide by the diagonal, then subtract a_k times
    column k from the entries above it). LAPACK's ``solve`` does the same
    steps, but its BLAS may fuse each multiply-subtract, and its forward
    pass over the unit lower factor can turn a -0.0 into 0.0, so its last
    bits can differ."""
    dim = _check_dim(dim)
    if not mono_coeffs:
        raise ValueError("mono_coeffs must be a non-empty 1-d vector")
    if not all(map(math.isfinite, mono_coeffs)):
        raise ValueError("mono_coeffs must be finite")
    table = monomial_table(dim, len(mono_coeffs) - 1)
    coeffs = list(mono_coeffs)
    for k in range(len(coeffs) - 1, -1, -1):
        coeffs[k] /= table[k][k]
        a_k = coeffs[k]
        for i in range(k):
            coeffs[i] -= a_k * table[i][k]
    # a huge b can overflow a step; GegenbauerPoly refuses the result too
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("coeffs must be finite")
    return coeffs
