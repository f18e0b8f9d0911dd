"""Certificate and code files as JSON, and the float text of stdout.

Files are written by ``json.dumps`` with a 2-space indent, keys in
insertion order: reals as Python's shortest round-trip repr, which reloads
every float64 bit for bit (-0.0 included) and is the same text on every
run. NaN and infinities are refused. Reading back uses plain ``json.load``,
and the readers below take finite JSON numbers only.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

from ._scalar import _check_int


def format_float(x: float) -> str:
    """``x`` with 17 significant digits, for stdout only. 17 digits name
    every float64, and the numbers the CLI prints (``gegenbauer eval``,
    ``gegenbauer expand``, the bounds) keep this form, which the README's
    examples and the benchmark's stdout checks pin; files use ``dumps``."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Serialize ``obj`` deterministically (dict order preserved)."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def dump_path(path: str, obj: Any) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(obj))


def json_ints(value: Any, name: str) -> list:
    """``value`` if it is a JSON array whose entries all pass ``_check_int``;
    anything else (a number, null or a string, whose characters a loop
    would walk) raises ValueError naming the field ``name``."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array of integers, got {value!r}")
    for item in value:
        _check_int(item, name)
    return value


def json_real(value: Any, name: str) -> float:
    """``value`` as a float if it is a finite JSON number. float(...) would
    parse a string such as "0.5" and take a bool as 0.0 or 1.0, and
    json.load reads the tokens NaN and Infinity, which ``dumps`` never
    writes, and integers past the float range; anything else raises
    ValueError naming the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # an exact comparison: NaN fails it, and a huge int is not converted
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def json_reals(value: Any, name: str) -> list:
    """``value`` if it is a JSON array whose entries, or the entries of
    its nested arrays, all pass ``json_real``; anything else raises
    ValueError naming the field ``name``."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array of real numbers, got {value!r}")
    for item in value:
        if isinstance(item, list):
            json_reals(item, name)
        else:
            json_real(item, name)
    return value


def json_object(value: Any, name: str) -> dict:
    """``value`` if it is a JSON object; anything else (a top-level array,
    say) raises ValueError saying that ``name`` must be an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def load_path(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)
