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

from ._scalar import _check_dim

FAMILIES = (
    "simplex",
    "orthonormal",
    "cross_polytope",
    "icosahedron",
    "d4_roots",
    "e8_roots",
)

# the largest dimension of the families that take one (a cross polytope
# holds 2 d^2 floats)
MAX_CATALOG_DIM = 1024

# the families whose dimension is fixed, with it
_FIXED_DIMS = {"icosahedron": 3, "d4_roots": 4, "e8_roots": 8}


def _simplex_vectors(d: int) -> list[list[float]]:
    """d+1 unit vectors in R^d with pairwise inner products -1/d.

    The simplex in R^k is e_1 and the points (-1/k, sqrt(1 - 1/k^2) v)
    for v in the simplex in R^(k-1). Built from k = 1 up, column d - j
    gets 1.0 on the diagonal and -1/j below it at step j, which every
    later step k scales by sqrt(1 - 1/k^2), and 0.0 above; each value is
    scaled here in that order, in O(d^2) steps, not O(d^3).
    """
    scales = {k: math.sqrt(1.0 - 1.0 / k**2) for k in range(2, d + 1)}
    out = [[0.0] * d for _ in range(d + 1)]
    for j in range(1, d + 1):
        col, diagonal, below = d - j, 1.0, -1.0 / j
        for k in range(j + 1, d + 1):
            diagonal *= scales[k]
            below *= scales[k]
        out[col][col] = diagonal
        for row in out[col + 1:]:
            row[col] = below
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

    Families: simplex(d), orthonormal(d), cross_polytope(d) need ``dim``,
    at most ``MAX_CATALOG_DIM``; icosahedron (3), d4_roots (4) and
    e8_roots (8) take ``dim`` None or their own dimension, and any other
    raises ValueError naming both.
    """
    if family in ("simplex", "orthonormal", "cross_polytope"):
        dim = _check_dim(dim, 1, f"{family} dimension")
        if dim > MAX_CATALOG_DIM:
            raise ValueError(
                f"{family} dimension is capped at {MAX_CATALOG_DIM}, got {dim}"
            )
    elif family in _FIXED_DIMS:
        fixed = _FIXED_DIMS[family]
        if dim is not None and _check_dim(dim, 1, f"{family} dimension") != fixed:
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
