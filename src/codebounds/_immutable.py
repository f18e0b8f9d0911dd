"""What makes the package's value types immutable: read-only arrays, and
copies and pickles that go back through the constructor. ``codes``,
``gegenbauer`` and ``pfender`` share it, so none of them imports another
for it."""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Rebuilt:
    """Copies and pickles are rebuilt through the constructor, so their
    arrays are read-only copies too and they carry none of the
    ``cached_property`` facts of the original, which live in its
    ``__dict__``."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))
