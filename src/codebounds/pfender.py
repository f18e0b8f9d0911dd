"""Pfender-style upper bounds (phi(1) + c) / c and their verification.

A function phi on [-1, 1] and a constant c > 0 certify that any code
whose evaluation values satisfy

    (i)  sum_{j,k} phi(f_j(tau_k)) >= 0      (diagonal included), and
    (ii) phi(r) + c <= 0 on [-1, cos_theta]

has at most (phi(1) + c) / c points. Structural certificates establish
condition (i) for every Euclidean code of a given dimension through
nonnegative Gegenbauer coefficients; per-code checks evaluate both
conditions directly on a concrete code, either over the whole interval
or only on the finite set of observed off-diagonal values.

The trusted checks live here once: ``condition_i`` (a nonnegative
Gegenbauer combination), ``interval_margin`` (the maximum of phi + c on
[-1, cos_theta]) and ``bound_values`` (the bound, its floor and the
phi(1) + c <= 1 clause), with the tolerances COND_TOL and COEFF_TOL. A
Delsarte polynomial P is verified by one ``pfender_bound`` call on the
structural certificate (P - a_0, a_0) (``dgs_bound.pfender_form``).

A ``PhiSpec`` is immutable, like a code: its coefficients are a
read-only copy. The same phi is typically checked against many codes,
each with its own cos_theta, so a polynomial phi finds the real roots of
phi' on [-1, 1] once, on its first interval check, and keeps them; each
check then evaluates phi + c at -1, cos_theta and the roots in between.

A per-code check does the work that depends on the code alone once per
code: its axioms (``codes.verify``) and its evaluation matrix, checked
to lie in [-1, 1] and clipped, are kept on the code. Each (code, phi)
pair then costs one phi evaluation over the n^2 kept values and their
sum, and a margin: phi + c at a few candidates on the interval, or the
largest of the off-diagonal values already evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import codes, jsonutil
from .errors import TheoremViolationError
from .gegenbauer import _check_dim, basis_values
from .scanning import chebyshev_points, critical_points

COND_TOL = 1e-9
COEFF_TOL = 1e-12
BOUND_SLACK = 1e-9

__all__ = [
    "PhiSpec",
    "PfenderVerification",
    "PfenderCertificate",
    "PfenderCheckResult",
    "condition_i",
    "interval_margin",
    "bound_values",
    "pfender_bound",
    "double_sum",
    "functional_pfender_check",
    "phi_to_json_dict",
    "phi_from_json_dict",
    "certificate_to_json_dict",
    "certificate_from_json_dict",
]

_BASES = ("gegenbauer", "monomial", "table")


@dataclass(frozen=True, eq=False)
class PhiSpec(codes._Rebuilt):
    """A function on [-1, 1] given in one of three representations.

    gegenbauer: coeffs are Gegenbauer coefficients for dimension ``dim``;
    monomial: ascending monomial coefficients; table: values at uniformly
    spaced nodes over [-1, 1] (piecewise-linear interpolation between
    nodes, spacing is the certificate author's responsibility).

    ``coeffs`` is a read-only copy, so the critical points a polynomial
    phi keeps after its first interval check cannot go stale.
    """

    basis: str
    coeffs: np.ndarray
    dim: int | None = None

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown phi basis {self.basis!r}")
        arr = np.atleast_1d(np.array(self.coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("phi coefficients must be a finite 1-d vector")
        if self.basis == "gegenbauer":
            _check_dim(self.dim)
        if self.basis == "table" and arr.size < 2:
            raise ValueError("table phi needs at least two nodes")
        object.__setattr__(self, "coeffs", codes._read_only(arr))

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        if self.basis == "table":
            nodes = np.linspace(-1.0, 1.0, len(self.coeffs))
            out = np.interp(arr, nodes, self.coeffs)
        else:
            out = _polynomial_values(self.basis, self.coeffs, self.dim, arr)
        if arr.shape == ():
            return float(out)
        return out

    @property
    def phi_at_1(self) -> float:
        return float(self(1.0))

    @property
    def node_spacing(self) -> float | None:
        if self.basis != "table":
            return None
        return 2.0 / (len(self.coeffs) - 1)


def _polynomial_values(basis, coeffs, dim, arr):
    """The polynomial with ``coeffs`` in ``basis`` at every entry of ``arr``."""
    if basis == "monomial":
        return np.polynomial.polynomial.polyval(arr, coeffs)
    values = basis_values(dim, len(coeffs) - 1, arr.reshape(-1))
    return (coeffs @ values).reshape(arr.shape)


def _critical_points(phi: PhiSpec) -> np.ndarray:
    """The real roots of a polynomial phi' in [-1, 1], found on the first
    call from phi at its m + 1 Chebyshev-Lobatto points and kept on phi:
    they depend on neither c nor cos_theta."""
    roots = getattr(phi, "_critical_points", None)
    if roots is None:
        samples = phi(chebyshev_points(-1.0, 1.0, len(phi.coeffs)))
        roots = critical_points(samples, -1.0, 1.0)
        object.__setattr__(phi, "_critical_points", codes._read_only(roots))
    return roots


@dataclass
class PfenderVerification:
    condition_i_ok: bool
    condition_i_evidence: str
    condition_ii_ok: bool
    condition_ii_margin: float  # max of phi(r) + c over the checked set
    condition_ii_location: float | None
    passed: bool
    special_case_le_one: bool  # phi(1) + c <= 1, so the 1/c clause applies
    messages: list[str] = field(default_factory=list)


@dataclass
class PfenderCertificate:
    phi: PhiSpec
    c: float
    cos_theta: float
    variant: str  # "interval" | "finite_set": where condition (ii) is checked
    bound_real: float
    bound_int: int
    verification: PfenderVerification | None = None


@dataclass
class PfenderCheckResult:
    certificate: PfenderCertificate
    applicable: bool
    reason: str | None
    n: int
    slack: float | None  # bound_real - n when applicable


def condition_i(phi: PhiSpec) -> tuple[bool, str]:
    """Condition (i) for every code of phi's dimension at once: phi is a
    nonnegative combination of the G_k, each positive definite on the
    sphere. Returns the verdict and its evidence."""
    if phi.basis != "gegenbauer":
        return False, (
            "condition (i) not established: structural mode requires a "
            "Gegenbauer representation"
        )
    min_coeff = float(np.min(phi.coeffs))
    if min_coeff < -COEFF_TOL:
        return False, (
            "condition (i) not established: negative Gegenbauer coefficient "
            f"{min_coeff!r}"
        )
    return True, (
        f"nonnegative Gegenbauer coefficients for dimension {phi.dim} "
        f"(min coefficient {min_coeff!r})"
    )


def interval_margin(phi: PhiSpec, c: float, cos_theta: float):
    """(max, argmax) of phi(r) + c on [-1, cos_theta], both exact up to
    rounding: a polynomial peaks at an endpoint or a critical point, and a
    table at an endpoint or a node. The candidates are -1, cos_theta and
    the critical points (or nodes) between them, in that order, and the
    first maximum wins. A polynomial's critical points on [-1, 1] are found
    once per phi (``_critical_points``), so checking one phi against many
    codes costs one evaluation per pair; c goes into the constant
    coefficient, so (P - a_0, a_0) is evaluated exactly as P is."""
    cos_theta = float(cos_theta)
    if not -1.0 <= cos_theta <= 1.0:
        raise ValueError("cos_theta must lie in [-1, 1]")
    if phi.basis == "table":
        inside = np.linspace(-1.0, 1.0, len(phi.coeffs))
    else:
        inside = _critical_points(phi)
    inside = inside[(inside > -1.0) & (inside < cos_theta)]
    points = np.concatenate(([-1.0, cos_theta], inside))
    if phi.basis == "table":
        values = phi(points) + c
    else:
        coeffs = phi.coeffs.copy()
        coeffs[0] += c
        values = _polynomial_values(phi.basis, coeffs, phi.dim, points)
    best = int(np.argmax(values))
    return float(values[best]), float(points[best])


def bound_values(phi: PhiSpec, c: float) -> tuple[float, int, bool]:
    """The bound (phi(1) + c) / c, its floor, and whether phi(1) + c <= 1
    (then the bound is also at most 1/c). Every G_k(1) and power of 1 is
    1, so phi(1) + c is the exactly rounded sum of a polynomial's
    coefficients and c, or of a table's last value and c: for (P - a_0,
    a_0) it is P(1) bit for bit. A bound past the float range raises
    ValueError, naming c."""
    terms = [phi.coeffs[-1]] if phi.basis == "table" else phi.coeffs.tolist()
    top = math.fsum([*terms, c])
    bound_real = top / c
    if math.isinf(bound_real):
        raise ValueError(
            f"c = {c!r} is too small: the bound (phi(1) + c) / c = "
            f"{top!r} / {c!r} is past the float range"
        )
    return bound_real, math.floor(bound_real + 1e-9), top <= 1.0 + COEFF_TOL


def _certify(phi, c, cos_theta, variant, ok_i, evidence, finite_set=None):
    """The certificate (phi, c) with its report, given condition (i)'s
    verdict; condition (ii) is checked on [-1, cos_theta], or only on a
    finite set of values r when ``finite_set`` = (r, phi(clipped r)) is
    given."""
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be strictly positive and finite, got {c!r}")
    if finite_set is None:
        margin, location = interval_margin(phi, c, cos_theta)
    elif finite_set[0].size:
        values, phi_values = finite_set
        shifted = phi_values + c
        best = int(np.argmax(shifted))
        margin, location = float(shifted[best]), float(values[best])
    else:
        margin, location = -math.inf, None
    ok_ii = margin <= COND_TOL
    messages = []
    if not ok_ii:
        messages.append(
            f"not a certificate: phi(r) + c = {margin!r} at r = {location!r}"
        )
    if phi.node_spacing is not None:
        messages.append(f"table phi with node spacing {phi.node_spacing!r}")
    bound_real, bound_int, special = bound_values(phi, c)
    verification = PfenderVerification(
        condition_i_ok=ok_i,
        condition_i_evidence=evidence,
        condition_ii_ok=ok_ii,
        condition_ii_margin=margin,
        condition_ii_location=location,
        passed=ok_i and ok_ii,
        special_case_le_one=special,
        messages=messages,
    )
    return PfenderCertificate(
        phi=phi,
        c=float(c),
        cos_theta=float(cos_theta),
        variant=variant,
        bound_real=bound_real,
        bound_int=bound_int,
        verification=verification,
    )


def pfender_bound(phi: PhiSpec, c: float, cos_theta: float) -> PfenderCertificate:
    """Structural certificate: condition (i) from nonnegative Gegenbauer
    coefficients, condition (ii) from the maximum of phi(r) + c over the
    endpoints and the critical points (or table nodes) of the interval.

    The returned certificate carries a verification report; ``passed`` is
    False when phi is not a nonnegative Gegenbauer combination (condition
    (i) not established) or when condition (ii) fails, with the violation
    location recorded. A cos_theta outside [-1, 1] raises ValueError.
    """
    return _certify(phi, c, cos_theta, "interval", *condition_i(phi))


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


def _code_entries(code) -> tuple[np.ndarray, np.ndarray]:
    """The code's evaluation matrix checked and clipped by
    ``_clipped_entries``, and the mask of its off-diagonal entries, both
    row-major. They depend on the code alone, so they are made on the
    first call and kept on the code next to its axiom facts; a matrix that
    fails the check keeps nothing and raises again on every call."""
    entries = getattr(code, "_evaluation_entries", None)
    if entries is None:
        clipped = _clipped_entries(codes._axiom_facts(code).matrix)
        off = ~np.eye(code.n, dtype=bool).ravel()
        entries = (codes._read_only(clipped), codes._read_only(off))
        object.__setattr__(code, "_evaluation_entries", entries)
    return entries


def double_sum(phi: PhiSpec, M: np.ndarray) -> float:
    """sum_{j,k} phi(M[j,k]) including diagonal terms.

    Entries must lie in [-1, 1] up to 1e-12 (the code axioms guarantee
    this); anything further out raises, naming the offending cell.
    """
    return float(np.sum(phi(_clipped_entries(M))))


def functional_pfender_check(
    code,
    phi: PhiSpec,
    c: float,
    variant: str = "interval",
    cos_theta: float | None = None,
) -> PfenderCheckResult:
    """Check both bound conditions directly on a concrete code.

    ``variant`` "interval" checks phi(r) + c <= 0 on all of
    [-1, cos_theta]; "finite_set" checks it only on the observed
    off-diagonal values f_j(tau_k). When both conditions hold the bound
    must cover the code; a violation raises TheoremViolationError (it
    would disprove the bound) instead of being folded into the report.
    """
    if variant not in ("interval", "finite_set"):
        raise ValueError(f"unknown variant {variant!r}")
    ct = float(code.cos_theta if cos_theta is None else cos_theta)
    report = codes.verify(code, cos_theta=ct)
    if not report.valid:
        raise ValueError(
            f"code fails its own verification at cos_theta={ct!r}: "
            f"{report.axiom_failures}"
        )
    n = code.n
    # phi is evaluated once per pair: its sum over all n^2 values is the
    # double sum (exactly as double_sum adds it up), and its off-diagonal
    # entries are the finite set of the finite-set variant
    entries, off = _code_entries(code)
    phi_values = phi(entries)
    total = float(np.sum(phi_values))
    finite_set = None
    if variant == "finite_set":
        M = codes._axiom_facts(code).matrix
        finite_set = (M.ravel()[off], phi_values[off])
    certificate = _certify(
        phi,
        c,
        ct,
        variant,
        total >= -COND_TOL * n * n,
        f"double sum = {total!r} over {n}x{n} evaluations",
        finite_set,
    )
    checked = certificate.verification
    bound_real = certificate.bound_real
    if not checked.passed:
        parts = []
        if not checked.condition_i_ok:
            parts.append(f"condition (i) fails: {checked.condition_i_evidence}")
        if not checked.condition_ii_ok:
            parts.append(
                "condition (ii) fails: phi(r) + c = "
                f"{checked.condition_ii_margin!r} at r = "
                f"{checked.condition_ii_location!r}"
            )
        reason = "certificate not applicable to this code: " + "; ".join(parts)
        return PfenderCheckResult(certificate, False, reason, n, None)
    if n > bound_real + BOUND_SLACK:
        raise TheoremViolationError(
            f"code with n = {n} exceeds certified bound {bound_real!r} "
            f"(phi(1) = {phi.phi_at_1!r}, c = {c!r})"
        )
    return PfenderCheckResult(certificate, True, None, n, bound_real - n)


def phi_to_json_dict(phi: PhiSpec) -> dict:
    return {
        "basis": phi.basis,
        "dim": None if phi.dim is None else int(phi.dim),
        "coeffs": [float(v) for v in phi.coeffs],
    }


def phi_from_json_dict(data: dict) -> PhiSpec:
    dim = jsonutil.json_object(data, "phi").get("dim")
    return PhiSpec(
        basis=data["basis"],
        coeffs=np.array(data["coeffs"], dtype=float),
        dim=None if dim is None else jsonutil.json_int(dim, "dim"),
    )


def certificate_to_json_dict(cert: PfenderCertificate) -> dict:
    return {
        "kind": "pfender",
        "variant": cert.variant,
        "phi": phi_to_json_dict(cert.phi),
        "c": float(cert.c),
        "cos_theta": float(cert.cos_theta),
        "bound_real": float(cert.bound_real),
        "bound_int": int(cert.bound_int),
    }


def certificate_from_json_dict(data: dict) -> PfenderCertificate:
    if jsonutil.json_object(data, "pfender certificate").get("kind") != "pfender":
        raise ValueError("not a pfender certificate")
    phi = phi_from_json_dict(data["phi"])
    variant = data["variant"]
    if variant not in ("interval", "finite_set"):
        raise ValueError(f"unknown certificate variant {variant!r}")
    return PfenderCertificate(
        phi=phi,
        c=float(data["c"]),
        cos_theta=float(data["cos_theta"]),
        variant=variant,
        bound_real=float(data["bound_real"]),
        bound_int=jsonutil.json_int(data["bound_int"], "bound_int"),
    )
