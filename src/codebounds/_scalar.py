"""The home of the input checks, which the CLI, the JSON readers and
the library share, and of the one Gegenbauer recursion,
``gegenbauer_rows``, which runs on a float and on an array alike.
``cli`` runs them without importing a module that needs numpy, so
``gegenbauer eval``, ``gegenbauer expand`` (whose expansion is
``exact``'s) and a bad ``bound lp`` argument cost no numpy import; the
integer checks accept numpy integers through ``numbers.Integral``, with
which numpy registers its integer types."""

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


def gegenbauer_rows(dim: int, max_degree: int, x, rows):
    """``rows`` with G_0..G_max_degree at ``x``, checked as ``basis_values``
    checks it: a float into a list of max_degree + 1 entries, or a float
    array into an array of shape (max_degree + 1,) + x.shape. G_k is
    ((2k + dim - 4) x G_{k-1} - (k - 1) G_{k-2}) / (k + dim - 3) in this
    order of IEEE operations, so a float and an array give the same bits."""
    rows[0] = 1.0
    if max_degree >= 1:
        rows[1] = x
    for k in range(2, max_degree + 1):
        # in place on an array's one fresh row; a float is rebound
        row = x * float(2 * k + dim - 4)
        row *= rows[k - 1]
        row -= rows[k - 2] * float(k - 1)
        row /= float(k + dim - 3)
        rows[k] = row
    return rows


def _check_table(dim, max_degree) -> tuple[int, int]:
    """(dim, max_degree) as ints for a monomial table or an expansion of
    degree ``max_degree``; a bad one raises ValueError."""
    dim = _check_dim(dim)
    max_degree = _check_nonnegative_degree(max_degree, "max_degree")
    if max_degree > MAX_TABLE_DEGREE:
        raise ValueError(f"monomial tables are capped at degree {MAX_TABLE_DEGREE}")
    return dim, max_degree
