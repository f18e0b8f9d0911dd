"""The catalog of classical spherical codes, in plain Python.

Each generator builds its unit vectors as lists of rows of Python floats,
and ``spherical_json_dict`` writes a spherical code's JSON object, so a
cold ``code gen`` writes its file without importing numpy.
``codes.generate`` and ``codes.code_to_json_dict`` wrap these functions
in arrays; every entry is the same IEEE operation, in the same order, as
in the array code this replaced, so the vectors keep their bits (the
-0.0 entries of ``cross_polytope`` included).
"""

from __future__ import annotations

import math
from itertools import combinations, product
from numbers import Integral

FAMILIES = (
    "simplex",
    "orthonormal",
    "cross_polytope",
    "icosahedron",
    "d4_roots",
    "e8_roots",
)

# the families whose dimension is fixed, with it
_FIXED_DIMS = {"icosahedron": 3, "d4_roots": 4, "e8_roots": 8}


def _check_dim(dim, name: str = "dimension") -> int:
    """``dim`` as an int if it is an integer >= 1; a bool or a non-integer
    (2.5, say) raises ValueError naming ``name``. (``_scalar._check_dim``
    asks for dim >= 2.)"""
    if isinstance(dim, bool) or not isinstance(dim, Integral) or dim < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {dim!r}")
    return int(dim)


def _simplex_vectors(d: int) -> list[list[float]]:
    """d+1 unit vectors in R^d with pairwise inner products -1/d.

    The simplex in R^k is e_1 and the points (-1/k, sqrt(1 - 1/k^2) v)
    for v in the simplex in R^(k-1). It is built in place from k = 1 up,
    in the bottom-right corner out[d-k:][d-k:], so each entry is scaled
    in the same order as by the recursion.
    """
    out = [[0.0] * d for _ in range(d + 1)]
    out[d - 1][d - 1], out[d][d - 1] = 1.0, -1.0
    for k in range(2, d + 1):
        top = d - k
        scale = math.sqrt(1.0 - 1.0 / k**2)
        for row in out[top + 1:]:
            row[top + 1:] = [v * scale for v in row[top + 1:]]
            row[top] = -1.0 / k
        out[top][top] = 1.0
    return out


def _icosahedron_vectors() -> list[list[float]]:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    scale = 1.0 / math.sqrt(1.0 + phi * phi)
    vecs = []
    for a, b in product((1.0, -1.0), repeat=2):
        vecs.append((0.0, a, b * phi))
        vecs.append((a, b * phi, 0.0))
        vecs.append((b * phi, 0.0, a))
    return [[v * scale for v in vec] for vec in vecs]


def _dn_root_vectors(dim: int) -> list[list[float]]:
    """The roots +-e_i +-e_j of D_dim, scaled to unit length."""
    root2 = math.sqrt(2.0)
    vecs = []
    for i, j in combinations(range(dim), 2):
        for si, sj in product((1.0, -1.0), repeat=2):
            v = [0.0] * dim
            v[i], v[j] = si, sj
            vecs.append([x / root2 for x in v])
    return vecs


def _e8_root_vectors() -> list[list[float]]:
    """D_8's roots, then the half-integer roots with an even number of -1/2."""
    root2 = math.sqrt(2.0)
    halves = [
        [x / root2 for x in signs]
        for signs in product((0.5, -0.5), repeat=8)
        if signs.count(-0.5) % 2 == 0
    ]
    return _dn_root_vectors(8) + halves


def generate(
    family: str, dim: int | None = None
) -> tuple[int, list[list[float]], float]:
    """A catalog code at its canonical cos_theta, as (dim, vectors,
    cos_theta) with the vectors a list of rows of Python floats.

    Families: simplex(d), orthonormal(d), cross_polytope(d) need ``dim``;
    icosahedron (3), d4_roots (4) and e8_roots (8) take ``dim`` None or
    their own dimension, and any other raises ValueError naming both.
    """
    if family in ("simplex", "orthonormal", "cross_polytope"):
        dim = _check_dim(dim, f"{family} dimension")
    elif family in _FIXED_DIMS:
        fixed = _FIXED_DIMS[family]
        if dim is not None and _check_dim(dim, f"{family} dimension") != fixed:
            raise ValueError(
                f"{family} has dimension {fixed}, got dimension {int(dim)}"
            )
    else:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family == "simplex":
        return dim, _simplex_vectors(dim), -1.0 / dim
    if family in ("orthonormal", "cross_polytope"):
        vectors = [[float(i == j) for j in range(dim)] for i in range(dim)]
        if family == "cross_polytope":
            vectors += [[-v for v in row] for row in vectors]
        return dim, vectors, 0.0
    if family == "icosahedron":
        return 3, _icosahedron_vectors(), 1.0 / math.sqrt(5.0)
    if family == "d4_roots":
        return 4, _dn_root_vectors(4), 0.5
    return 8, _e8_root_vectors(), 0.5


def spherical_json_dict(
    dim: int, vectors: list[list[float]], cos_theta: float
) -> dict:
    """A spherical code's JSON object; ``vectors`` is a list of rows of
    Python floats, which the object holds as it is."""
    return {
        "kind": "spherical",
        "dim": int(dim),
        "cos_theta": float(cos_theta),
        "vectors": vectors,
    }
