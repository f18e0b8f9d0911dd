"""Spherical, functional (Banach), and metric (Lipschitz) codes.

All three notions share the same axiom shape: unit "points", unit
"functionals", diagonal evaluations equal to 1, and off-diagonal
evaluations at most cos(theta). ``verify`` checks every axiom of the
matching definition and reports the coherence (largest off-diagonal
value). A fixed generator catalog provides the classical extremal
configurations used to anchor the bound modules.

Codes are immutable values: each constructor copies its arrays and marks
the copies read-only. So what a code derives from them alone is a cached
property of the code (``_Code``), made on first use: the axiom work that
does not depend on the angle, and the evaluation values a per-code
Pfender check reads. Only the comparison with cos_theta (axiom (iv))
runs on every call.

A metric code's check is exact and visits only the work that can change
its answer. The triangle inequality runs its per-point slack only on the
pairs that row and column minima of the distances cannot clear (IEEE
rounding is monotone), which no catalog embedding has, so it costs
O(N^2) over N space points. An embedded spherical code's distance
matrix is built row by row (``embed_as_metric_code``), so its working
memory is O(N^2), with no N^2 x dim difference tensor. The Lipschitz
norms of all n functions are one pass over the point pairs, each
unordered pair once when the matrix is exactly symmetric (|x - y| has
the same bits both ways), about n N^2 / 2 divisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _catalog, jsonutil
from ._catalog import FAMILIES
from ._immutable import Rebuilt, float_array, read_only
from ._scalar import _check_dim, _check_int

TOL_EQ = 1e-12
TOL_LIP = 1e-9

__all__ = [
    "FAMILIES",
    "LpSpace",
    "SphericalCode",
    "FunctionalCode",
    "PointedMetricSpace",
    "MetricCode",
    "VerifyReport",
    "verify",
    "evaluation_matrix",
    "norming_functional",
    "euclidean_to_functional",
    "embed_as_metric_code",
    "lipschitz_norm",
    "generate",
    "random_functional_code",
    "code_to_json_dict",
    "code_from_json_dict",
]


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains NaN or infinite entries")
    return arr


def _check_indices(indices, n_points: int) -> np.ndarray:
    """``indices`` as a 1-d int array if every entry is an integer in
    [0, n_points), checked before ``np.array(..., dtype=int)``, which would
    truncate a bool or a non-integer (1.7, say) and overflow past int64."""
    for value in np.asarray(indices, dtype=object).ravel().tolist():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"point_indices must be integers, got {value!r}")
        if not 0 <= value < n_points:
            raise ValueError("point index out of range")
    return np.atleast_1d(np.array(indices, dtype=int))


def lp_norm(x: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """lp_norm of every row: one axis=1 reduction, then lp_norm's scalar root.

    numpy's vectorized power can differ from the scalar one in the last
    bit, and the norms appear in failure messages.
    """
    if p == math.inf:
        return np.max(np.abs(rows), axis=1)
    sums = np.sum(np.abs(rows) ** p, axis=1)
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def dual_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


class _Code(Rebuilt):
    """A code's facts, each a ``functools.cached_property``: made on first
    use and kept in the code's own ``__dict__``, where no other module
    writes. One that raises keeps nothing, so it raises again next time.
    ``_failures`` reads them at an angle."""

    @cached_property
    def _axiom_facts(self) -> _AxiomFacts:
        return _check_axioms(self)

    @cached_property
    def _evaluation_entries(self) -> np.ndarray:
        """The evaluation matrix checked and clipped by ``_clipped_entries``,
        row-major."""
        return read_only(_clipped_entries(self._axiom_facts.matrix))

    def _failures(self, ct: float) -> list[str]:
        """``verify``'s axiom failures at the angle ``ct``, read from the
        code's facts: the stored ones, then axiom (iv) at ct. A ct that is
        not finite raises. A per-code Pfender check needs only this list,
        not a report, and reaches it through the code it is given."""
        if not math.isfinite(ct):
            raise ValueError(f"cos_theta must be finite, got {ct!r}")
        facts = self._axiom_facts
        failures = list(facts.failures)
        if facts.max_offdiag is not None and facts.max_offdiag > ct + TOL_EQ:
            j, k = facts.worst_pair
            failures.append(
                f"axiom (iv): f_{j}(tau_{k}) = {facts.max_offdiag!r} exceeds "
                f"cos_theta = {ct!r}"
            )
        return failures


@dataclass(frozen=True)
class LpSpace:
    """Real l_p space of a fixed dimension; p in [1, inf]."""

    p: float
    dim: int

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError("p must satisfy p >= 1")
        _check_dim(self.dim, 1)


@dataclass(frozen=True, eq=False)
class SphericalCode(_Code):
    """Unit vectors in R^dim with declared pairwise inner-product ceiling."""

    dim: int
    vectors: np.ndarray
    cos_theta: float

    kind = "spherical"

    def __post_init__(self):
        _check_dim(self.dim, 1)
        arr = np.atleast_2d(float_array(self.vectors, "vectors"))
        _check_finite(arr, "vectors")
        if arr.shape[1] != self.dim:
            raise ValueError(f"vectors have dimension {arr.shape[1]}, declared {self.dim}")
        object.__setattr__(self, "vectors", read_only(arr))
        object.__setattr__(self, "cos_theta", float(self.cos_theta))

    @property
    def n(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class FunctionalCode(_Code):
    """Points and dual functionals in an l_p space, paired by evaluation."""

    space: LpSpace
    points: np.ndarray
    functionals: np.ndarray
    cos_theta: float

    kind = "functional"

    def __post_init__(self):
        pts = np.atleast_2d(float_array(self.points, "points"))
        fns = np.atleast_2d(float_array(self.functionals, "functionals"))
        _check_finite(pts, "points")
        _check_finite(fns, "functionals")
        if pts.shape != fns.shape or pts.shape[1] != self.space.dim:
            raise ValueError("points/functionals shape mismatch")
        object.__setattr__(self, "points", read_only(pts))
        object.__setattr__(self, "functionals", read_only(fns))
        object.__setattr__(self, "cos_theta", float(self.cos_theta))

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class PointedMetricSpace(Rebuilt):
    """Finite metric space given by a distance matrix; point 0 is the base.

    The base is not stored: metric code files carry it as ``"base": 0``,
    and ``code_from_json_dict`` rejects any other value.
    """

    distance: np.ndarray

    def __post_init__(self):
        d = float_array(self.distance, "distance matrix")
        _check_finite(d, "distance matrix")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not d.size:
            raise ValueError(
                "distance matrix is empty: a pointed space needs its base point 0"
            )
        object.__setattr__(self, "distance", read_only(d))

    @property
    def n_points(self) -> int:
        return len(self.distance)


@dataclass(frozen=True, eq=False)
class MetricCode(_Code):
    """Lipschitz code: value tables f_j over a pointed metric space."""

    space: PointedMetricSpace
    point_indices: np.ndarray
    functions: np.ndarray
    cos_theta: float

    kind = "metric"

    def __post_init__(self):
        idx = _check_indices(self.point_indices, self.space.n_points)
        fns = np.atleast_2d(float_array(self.functions, "function tables"))
        _check_finite(fns, "function tables")
        if fns.shape != (len(idx), self.space.n_points):
            raise ValueError("function tables must cover every space point")
        object.__setattr__(self, "point_indices", read_only(idx))
        object.__setattr__(self, "functions", read_only(fns))
        object.__setattr__(self, "cos_theta", float(self.cos_theta))

    @property
    def n(self) -> int:
        return len(self.point_indices)


@dataclass
class VerifyReport:
    valid: bool
    max_offdiag: float | None
    worst_pair: tuple[int, int] | None
    axiom_failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def evaluation_matrix(code) -> np.ndarray:
    """M[j, k] = f_j(tau_k); the Gram matrix for spherical codes."""
    if isinstance(code, SphericalCode):
        return code.vectors @ code.vectors.T
    if isinstance(code, FunctionalCode):
        return code.functionals @ code.points.T
    if isinstance(code, MetricCode):
        return code.functions[:, code.point_indices]
    raise TypeError(f"not a code: {type(code).__name__}")


def _clipped_entries(M: np.ndarray) -> np.ndarray:
    """Every entry of M, clipped to [-1, 1], in row-major order.

    Entries must lie in [-1, 1] up to 1e-12 (the code axioms guarantee
    this); anything further out raises, naming the offending cell.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise ValueError("evaluation matrix contains NaN or infinite entries")
    outside = np.abs(M) > 1.0 + 1e-12
    if outside.any():
        j, k = np.unravel_index(int(np.argmax(np.abs(M))), M.shape)
        value = float(M[j, k])
        raise ValueError(
            f"evaluation value {value!r} at (j={j}, k={k}) lies outside [-1, 1]"
        )
    return np.clip(M, -1.0, 1.0).ravel()


def lipschitz_norm(distance: np.ndarray, values: np.ndarray) -> float | np.ndarray:
    """Exact Lipschitz norm of a value table: sup over point pairs.

    ``values`` is one table (a float comes back) or one table per row (an
    array of norms comes back). Two points at distance 0 with different
    values make a norm infinite.

    The pairs are visited point by point: for each a, the ratios
    |f(b) - f(a)| / d(a, b) of every table at once, folded with ``fmax``
    from 0.0. When the distance matrix is exactly symmetric, each unordered
    pair is visited once, as (a, b) with b > a: |x - y| has the same bits
    as |y - x|, so the ratio of (b, a) is the same float, and the maximum
    keeps its bits. This costs about n N^2 / 2 divisions for n tables over
    N points (n N^2 otherwise), with no n x N^2 temporary.
    """
    # + 0.0 turns a -0.0 distance into +0.0, so a jump across it is +inf
    dist = np.asarray(distance, dtype=float) + 0.0
    table = np.asarray(values, dtype=float)
    columns = np.ascontiguousarray(np.atleast_2d(table).T)  # row b: every f(b)
    symmetric = np.array_equal(dist, dist.T)
    norms = np.zeros(columns.shape[1])
    buffer = np.empty_like(columns)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(len(dist)):
            start = a + 1 if symmetric else 0
            ratios = buffer[start:]
            np.subtract(columns[start:], columns[a], out=ratios)
            np.abs(ratios, out=ratios)
            np.divide(ratios, dist[a, start:, None], out=ratios)
            # NaN is 0 / 0 (a point with itself, or equal values at distance
            # 0) and is skipped; a negative distance gives a ratio <= 0, which
            # never counts
            np.fmax(norms, np.fmax.reduce(ratios, axis=0, initial=0.0), out=norms)
        if np.any(dist < 0):
            # a -0.0 ratio (equal values across a negative distance) can make
            # a zero norm -0.0, as numpy's whole-matrix reduction orders it;
            # such a norm is recomputed over the whole matrix
            for j in np.flatnonzero(norms == 0.0).tolist():
                f = columns[:, j]
                ratios = np.abs(f[None, :] - f[:, None]) / dist
                norms[j] = np.fmax.reduce(ratios, axis=None, initial=0.0)
    return float(norms[0]) if table.ndim == 1 else norms


def _offdiag_report(matrix: np.ndarray):
    n = len(matrix)
    if n < 2:
        return None, None
    off = matrix.copy()
    np.fill_diagonal(off, -np.inf)
    j, k = np.unravel_index(int(np.argmax(off)), off.shape)
    return float(off[j, k]), (int(j), int(k))


def _triangle_failure(d: np.ndarray, off: np.ndarray) -> str | None:
    """The triangle failure of the loop "for each k, the first maximal
    slack d[i, j] - (d[i, k] + d[k, j]) over all (i, j) in row-major order,
    if it exceeds TOL_EQ", run only on the pairs that can fail.

    ``off`` is d with +inf on the diagonal. Its row minima r_i and column
    minima c_j bound d[i, k] and d[k, j] for every k outside {i, j}, and
    IEEE rounding is monotone, so the pair (i, j) can fail there only if
    d[i, j] - (r_i + c_j) exceeds TOL_EQ. At k = i or k = j it can fail
    only if d[k, k] < 0, so row k and column k join the candidates of such
    a k. Any failing slack lies above TOL_EQ and every other pair's lies
    at or below it, so the first maximal candidate is the loop's own pair.
    A metric has no candidates, and the check costs O(N^2); the worst case
    is the loop's O(N^3).
    """
    n = len(d)
    bound = d - (np.min(off, axis=1)[:, None] + np.min(off, axis=0)[None, :])
    pairs = np.flatnonzero(bound > TOL_EQ)  # row-major flat indices
    negative = np.diagonal(d) < 0
    for k in range(n) if pairs.size else np.flatnonzero(negative).tolist():
        cells = pairs
        if negative[k]:
            line = np.arange(n)
            cells = np.concatenate([pairs, k * n + line, line * n + k])
        i, j = np.divmod(cells, n)
        slack = d[i, j] - (d[i, k] + d[k, j])
        worst = np.max(slack)
        if worst > TOL_EQ:
            i, j = divmod(int(np.min(cells[slack == worst])), n)
            return f"metric: triangle inequality fails for ({i},{j}) via {k}"
    return None


@dataclass(frozen=True, eq=False)
class _AxiomFacts:
    """The half of ``verify`` that does not depend on the angle."""

    failures: tuple[str, ...]
    warnings: tuple[str, ...]
    matrix: np.ndarray  # the evaluation matrix, read-only
    max_offdiag: float | None
    worst_pair: tuple[int, int] | None


def _check_axioms(code) -> _AxiomFacts:
    failures: list[str] = []
    warnings: list[str] = []

    if isinstance(code, SphericalCode):
        norms = np.linalg.norm(code.vectors, axis=1)
        for j, v in enumerate(norms):
            if abs(v - 1.0) > TOL_EQ:
                failures.append(f"axiom (ii): vector {j} has norm {float(v)!r}, not 1")
    elif isinstance(code, FunctionalCode):
        p = code.space.p
        q = dual_exponent(p)
        point_norms = _row_norms(code.points, p)
        functional_norms = _row_norms(code.functionals, q)
        # row-by-row dot products, as f_j @ tau_j
        pairings = (code.functionals[:, None, :] @ code.points[:, :, None]).ravel()
        for j, (np_, nf, fjj) in enumerate(
            zip(point_norms.tolist(), functional_norms.tolist(), pairings.tolist())
        ):
            if abs(np_ - 1.0) > TOL_EQ:
                failures.append(f"axiom (ii): point {j} has l_{p} norm {np_!r}")
            if abs(nf - 1.0) > TOL_EQ:
                failures.append(f"axiom (i): functional {j} has l_{q} norm {nf!r}")
            if abs(fjj - 1.0) > TOL_EQ:
                failures.append(f"axiom (iii): f_{j}(tau_{j}) = {fjj!r}, not 1")
    else:
        d = code.space.distance
        if np.any(np.abs(np.diagonal(d)) > TOL_EQ):
            failures.append("metric: nonzero diagonal in the distance matrix")
        if np.any(d < -TOL_EQ):
            failures.append("metric: negative distance")
        if np.max(np.abs(d - d.T)) > TOL_EQ:
            failures.append("metric: distance matrix not symmetric")
        off = d.copy()
        np.fill_diagonal(off, np.inf)
        if off.size and np.min(off) <= TOL_EQ:
            warnings.append("duplicate space points (zero off-diagonal distance)")
        triangle = _triangle_failure(d, off)
        if triangle is not None:
            failures.append(triangle)
        lips = lipschitz_norm(d, code.functions).tolist()
        # the base is point 0
        for j in range(code.n):
            tau = int(code.point_indices[j])
            f = code.functions[j]
            at_base, at_tau, distance = float(f[0]), float(f[tau]), float(d[tau, 0])
            if abs(at_base) > TOL_EQ:
                failures.append(f"axiom: f_{j}(base) = {at_base!r}, not 0")
            if abs(lips[j] - 1.0) > TOL_LIP:
                failures.append(f"axiom (i): f_{j} has Lipschitz norm {lips[j]!r}")
            if abs(distance - 1.0) > TOL_EQ:
                failures.append(
                    f"axiom (ii): point {j} lies at distance {distance!r} from base"
                )
            if abs(at_tau - 1.0) > TOL_EQ:
                failures.append(f"axiom (iii): f_{j}(tau_{j}) = {at_tau!r}, not 1")
        # a set rather than np.unique, whose first call imports numpy.ma
        if len(set(code.point_indices.tolist())) < code.n:
            warnings.append("duplicate selected points tau_j")

    matrix = read_only(evaluation_matrix(code))
    max_offdiag, worst_pair = _offdiag_report(matrix)
    if isinstance(code, SphericalCode) and code.n >= 2 and max_offdiag >= 1.0 - TOL_EQ:
        warnings.append("duplicate vectors (off-diagonal inner product 1)")
    return _AxiomFacts(tuple(failures), tuple(warnings), matrix, max_offdiag, worst_pair)


def verify(code, cos_theta: float | None = None) -> VerifyReport:
    """Check every axiom of the code's definition.

    ``cos_theta`` overrides the declared angle when given (used by the CLI
    to re-verify a stored code against a different ceiling). NaN or
    infinite entries, or a cos_theta that is not finite, raise
    immediately; axiom failures are reported, not raised. A code is
    immutable, so everything but the cos_theta comparison of axiom (iv)
    is computed on its first ``verify`` and reused by every later call;
    each call returns fresh lists.
    """
    ct = code.cos_theta if cos_theta is None else float(cos_theta)
    failures = code._failures(ct)
    facts = code._axiom_facts
    return VerifyReport(
        valid=not failures,
        max_offdiag=facts.max_offdiag,
        worst_pair=facts.worst_pair,
        axiom_failures=failures,
        warnings=list(facts.warnings),
    )


def norming_functional(x: np.ndarray, p: float) -> np.ndarray:
    """Unique unit functional f with f(x) = 1 for a unit vector x in l_p.

    Componentwise sign(x_i) |x_i|^(p-1), the Hoelder equality case. Only
    smooth norms (1 < p < inf) have a unique norming functional; p = 1 and
    p = inf are rejected.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("non-smooth norm: supply the functional explicitly")
    x = _check_finite(np.asarray(x, dtype=float), "vector")
    if abs(lp_norm(x, p) - 1.0) > TOL_EQ:
        raise ValueError("x must be a unit vector in l_p")
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def euclidean_to_functional(code: SphericalCode) -> FunctionalCode:
    """View a spherical code as an l_2 functional code (f_j = tau_j)."""
    report = verify(code)
    if not report.valid:
        raise ValueError(f"invalid spherical code: {report.axiom_failures}")
    return FunctionalCode(
        space=LpSpace(2.0, code.dim),
        points=code.vectors.copy(),
        functionals=code.vectors.copy(),
        cos_theta=code.cos_theta,
    )


def embed_as_metric_code(code: SphericalCode) -> MetricCode:
    """Embed a spherical code as a Lipschitz code over {0} + its vectors.

    Each f_j is the inner product with tau_j restricted to the finite
    point set; the pair (tau_j, 0) witnesses Lipschitz norm exactly 1.
    """
    report = verify(code)
    if not report.valid:
        raise ValueError(f"invalid spherical code: {report.axiom_failures}")
    pts = np.vstack([np.zeros(code.dim), code.vectors])
    # row by row, with no (N + 1)^2 x dim difference tensor: the same
    # last-axis reduction, so the same bits, and |x - y| = |y - x| exactly
    distance = np.empty((len(pts), len(pts)))
    for i, p in enumerate(pts):
        distance[i] = np.linalg.norm(pts - p, axis=1)
    functions = pts @ code.vectors.T  # column j = <., tau_j>
    functions = functions.T
    return MetricCode(
        space=PointedMetricSpace(distance),
        point_indices=np.arange(1, code.n + 1),
        functions=functions,
        cos_theta=code.cos_theta,
    )


def generate(family: str, dim: int | None = None) -> SphericalCode:
    """Build a catalog code at its canonical cos_theta.

    Families: simplex(d), orthonormal(d), cross_polytope(d), icosahedron,
    d4_roots, e8_roots. A fixed family takes ``dim`` None or its own
    dimension. ``_catalog.generate`` builds the vectors.
    """
    return SphericalCode(*_catalog.generate(family, dim))


def random_functional_code(
    rng: np.random.Generator, p: float, dim: int, n_points: int
) -> FunctionalCode:
    """Random l_p functional code; cos_theta is set to its own coherence."""
    pts = rng.normal(size=(n_points, dim))
    for j in range(n_points):
        pts[j] /= lp_norm(pts[j], p)
    fns = np.array([norming_functional(v, p) for v in pts])
    max_offdiag, _ = _offdiag_report(fns @ pts.T)
    ct = 0.0 if max_offdiag is None else max_offdiag
    return FunctionalCode(LpSpace(p, dim), pts, fns, ct)


def code_to_json_dict(code) -> dict:
    if isinstance(code, SphericalCode):
        return _catalog.spherical_json_dict(
            code.dim, code.vectors.tolist(), code.cos_theta
        )
    if isinstance(code, FunctionalCode):
        p = code.space.p
        return {
            "kind": "functional",
            "space": {
                "type": "lp",
                "p": "inf" if p == math.inf else float(p),
                "dim": int(code.space.dim),
            },
            "points": [[float(v) for v in row] for row in code.points],
            "functionals": [[float(v) for v in row] for row in code.functionals],
            "cos_theta": float(code.cos_theta),
        }
    if isinstance(code, MetricCode):
        return {
            "kind": "metric",
            "distance": [[float(v) for v in row] for row in code.space.distance],
            "base": 0,
            "point_indices": [int(i) for i in code.point_indices],
            "functions": [[float(v) for v in row] for row in code.functions],
            "cos_theta": float(code.cos_theta),
        }
    raise TypeError(f"not a code: {type(code).__name__}")


def code_from_json_dict(data: dict):
    kind = jsonutil.json_object(data, "code").get("kind")

    def reals(name):
        return jsonutil.json_reals(data[name], name)

    if kind == "spherical":
        return SphericalCode(
            dim=_check_int(data["dim"], "dim"),
            vectors=reals("vectors"),
            cos_theta=jsonutil.json_real(data["cos_theta"], "cos_theta"),
        )
    if kind == "functional":
        space = jsonutil.json_object(data["space"], "space")
        p = math.inf if space["p"] == "inf" else jsonutil.json_real(space["p"], "p")
        return FunctionalCode(
            space=LpSpace(p, _check_int(space["dim"], "space dim")),
            points=reals("points"),
            functionals=reals("functionals"),
            cos_theta=jsonutil.json_real(data["cos_theta"], "cos_theta"),
        )
    if kind == "metric":
        if _check_int(data.get("base", 0), "base") != 0:
            raise ValueError("base point index must be 0")
        return MetricCode(
            space=PointedMetricSpace(reals("distance")),
            point_indices=jsonutil.json_ints(data["point_indices"], "point_indices"),
            functions=reals("functions"),
            cos_theta=jsonutil.json_real(data["cos_theta"], "cos_theta"),
        )
    raise ValueError(f"unknown code kind {kind!r}")
