"""The argument checks and the one-point Gegenbauer recursion, in plain
Python. ``cli`` runs them before it imports a module that needs numpy,
so a bad ``bound lp`` argument, or a single G_k value, costs no numpy
import. Each check has this one definition, which the library modules
import too; the integer checks accept numpy integers through
``numbers.Integral``, with which numpy registers its integer types."""

from __future__ import annotations

import math
from numbers import Integral

MAX_TABLE_DEGREE = 40


def _check_dim(dim: int) -> int:
    if not isinstance(dim, Integral) or dim < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def _check_degree(degree, name: str = "degree") -> int:
    """``degree`` as an int. A bool or a non-integer (2.0, say) raises
    ValueError naming ``name``, as ``jsonutil.json_int`` does, instead of
    passing True as degree 1 or failing later in an unnamed TypeError."""
    if isinstance(degree, bool) or not isinstance(degree, Integral):
        raise ValueError(f"{name} must be an integer, got {degree!r}")
    return int(degree)


def _check_nonnegative_degree(degree, name: str = "degree") -> int:
    """``degree`` as an int if it is an integer >= 0, else ValueError
    naming ``name``."""
    degree = _check_degree(degree, name)
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
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not (-1.0 <= cos_theta < 1.0):
        raise ValueError(f"cos_theta must lie in [-1, 1), got {cos_theta}")
    if _check_degree(degree) < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > MAX_TABLE_DEGREE:
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
