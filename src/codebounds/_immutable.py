"""What makes the package's value types immutable: read-only arrays, float
arrays that name an overflowing input, and copies and pickles that go
back through the constructor. ``codes``,
``gegenbauer`` and ``pfender`` share it, so none of them imports another
for it."""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def float_array(values, what: str) -> np.ndarray:
    """``np.array(values, dtype=float)``, where a Python integer past the
    float range raises a ValueError naming ``what`` instead of numpy's
    unnamed OverflowError."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(
            f"{what} must be finite, got an integer past the float range"
        ) from None


class Rebuilt:
    """Copies and pickles are rebuilt through the constructor, so their
    arrays are read-only copies too and they carry none of the
    ``cached_property`` facts of the original, which live in its
    ``__dict__``."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))
