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
[-1, cos_theta]), ``bound_values`` (the bound, its floor and the
phi(1) + c <= 1 clause) and ``stored_bound_mismatches`` (a file's stored
bounds against those). Only the margin has a tolerance, COND_TOL: a
coefficient must be >= 0, and phi(1) + c <= 1, exactly. A Delsarte
polynomial P is the structural certificate (P - a_0, a_0)
(``pfender_form``; ``PfenderCertificate.poly`` is its inverse), so the
LP bound's certificates are verified, written and read as these are.

A ``PhiSpec`` is immutable, like a code: its coefficients are a
read-only copy. The same phi is typically checked against many codes,
each with its own cos_theta. So a phi keeps, as cached properties, what
depends on it alone: its coefficients as Python floats, which are also
the terms of phi(1) (``PhiSpec._terms``); the sorted points above -1
where phi + c may peak inside an interval, found on its first interval
check (``PhiSpec._candidates``: a polynomial's critical points on
[-1, 1], or a table's nodes); and phi's values at -1 and at those
points, from one evaluation (``PhiSpec._candidate_values``). Each
interval check then adds c to those values at -1 and at the candidates
below cos_theta, found by bisection, and to phi(cos_theta), the one
value it computes (``PhiSpec._values`` at the one float cos_theta).

A per-code check reads what depends on the code alone from the code's
own cached facts (``codes._Code``): its axiom failures, to which only
axiom (iv) at the pair's cos_theta is added (``code._failures(ct)``,
with no ``VerifyReport``), and its evaluation values, checked to lie in
[-1, 1] and clipped. It reaches them through the code it is given, so
this module does not import ``codes`` (``double_sum`` does, when it
runs), and a command that reads no code never loads it. This module
stores nothing on a code, and a phi keeps nothing that depends on a
code or a cos_theta. Each (code, phi) pair then costs one evaluation of
phi over the n^2 values, already checked (for a Gegenbauer phi, one run
of the recursion; for a monomial phi, Horner's rule in numpy's
``polyval`` order, ``gegenbauer._horner``), their sum, a margin, and the
bound from phi's kept terms. Its working memory is the n^2 values plus
one (m + 1)-row table of G_0..G_m: over 2 * BLOCK values or more, the
recursion and the product with phi's coefficients run on one column
block at a time (``PhiSpec._values``). The margin on the interval is
the largest of c plus phi's kept values and phi(cos_theta); on the
finite set it is the largest of the off-diagonal values already
evaluated. Every check refuses a cos_theta outside [-1, 1].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jsonutil
from ._immutable import Rebuilt, float_array, read_only
from ._scalar import _check_dim, _check_int, gegenbauer_rows
from .errors import TheoremViolationError
from .gegenbauer import GegenbauerPoly, _check_r, _horner
from .scanning import chebyshev_points, critical_points

COND_TOL = 1e-9
# columns per block of a Gegenbauer phi's table over many points
BLOCK = 8192

__all__ = [
    "PhiSpec",
    "PfenderVerification",
    "PfenderCertificate",
    "PfenderCheckResult",
    "condition_i",
    "interval_margin",
    "bound_values",
    "stored_bound_mismatches",
    "pfender_form",
    "pfender_bound",
    "double_sum",
    "functional_pfender_check",
    "phi_to_json_dict",
    "phi_from_json_dict",
    "certificate_to_json_dict",
    "certificate_from_json_dict",
]

_BASES = ("gegenbauer", "monomial", "table")
_NOT_A_CERTIFICATE = "not a certificate: "


@dataclass(frozen=True, eq=False)
class PhiSpec(Rebuilt):
    """A function on [-1, 1] given in one of three representations.

    gegenbauer: coeffs are Gegenbauer coefficients for dimension ``dim``;
    monomial: ascending monomial coefficients; table: values at uniformly
    spaced nodes over [-1, 1] (piecewise-linear interpolation between
    nodes, spacing is the certificate author's responsibility).

    ``coeffs`` is a read-only copy, so the candidates and the values a
    phi keeps after its first interval check cannot go stale.
    """

    basis: str
    coeffs: np.ndarray
    dim: int | None = None

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown phi basis {self.basis!r}")
        arr = np.atleast_1d(float_array(self.coeffs, "phi coefficients"))
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("phi coefficients must be a finite 1-d vector")
        if self.basis == "gegenbauer":
            _check_dim(self.dim)
        if self.basis == "table" and arr.size < 2:
            raise ValueError("table phi needs at least two nodes")
        object.__setattr__(self, "coeffs", read_only(arr))

    def __call__(self, r):
        arr = _check_r(r)
        out = self._values(arr.reshape(-1)).reshape(arr.shape)
        if arr.shape == ():
            return float(out)
        return out

    def _values(self, x):
        """phi at the points of the 1-d float array ``x``, or at the one
        float ``x`` (G_k then in Python floats), checked to lie in [-1, 1].

        A Gegenbauer phi over 2 * BLOCK points or more is evaluated in
        column blocks that start at multiples of BLOCK, the last running
        to the end, so each (m + 1)-row table has at least BLOCK columns.
        A gemv's column result can depend on the product's width and on
        the column's offset; these blocks give the single product's bits
        on one BLAS thread, and on 1-4 threads at widths that a threaded
        gemv splits at aligned offsets, such as E8's 240^2. At an odd
        width the single product's own bits depend on the thread count."""
        if self.basis == "table":
            nodes = np.linspace(-1.0, 1.0, len(self.coeffs))
            return np.interp(x, nodes, self.coeffs)
        if self.basis == "monomial":
            return _horner(self._terms, x)
        size = len(self.coeffs)
        if isinstance(x, float):
            return self.coeffs @ gegenbauer_rows(self.dim, size - 1, x, [0.0] * size)
        if x.size < 2 * BLOCK:
            return self.coeffs @ self._table(x)
        out = np.empty(x.size)
        starts = range(0, x.size - BLOCK + 1, BLOCK)
        for start, stop in zip(starts, [*starts[1:], x.size]):
            out[start:stop] = self.coeffs @ self._table(x[start:stop])
        return out

    def _table(self, x: np.ndarray) -> np.ndarray:
        """G_0..G_m at the points of the 1-d float array ``x``."""
        size = len(self.coeffs)
        return gegenbauer_rows(self.dim, size - 1, x, np.empty((size, x.size)))

    @property
    def phi_at_1(self) -> float:
        return float(self(1.0))

    @property
    def node_spacing(self) -> float | None:
        if self.basis != "table":
            return None
        return 2.0 / (len(self.coeffs) - 1)

    @cached_property
    def _terms(self) -> list[float]:
        """The coefficients (or nodal values) as Python floats, read once:
        a table's last value and a polynomial's coefficients are the terms
        of phi(1), since every G_k(1) and power of 1 is 1."""
        return self.coeffs.tolist()

    @cached_property
    def _candidates(self) -> list[float]:
        """Where phi + c may peak inside an interval [-1, cos_theta], sorted:
        a table's nodes, or the real roots of a polynomial phi' on [-1, 1],
        from phi at its m + 1 Chebyshev-Lobatto points, that lie above -1
        (an interval check takes -1 itself as its first candidate). They
        depend on neither c nor cos_theta."""
        if self.basis == "table":
            points = np.linspace(-1.0, 1.0, len(self.coeffs))
        else:
            # phi's samples, or their derivative's Chebyshev coefficients,
            # past the float range would end in numpy's LinAlgError
            try:
                with np.errstate(over="raise", invalid="raise"):
                    samples = self(chebyshev_points(-1.0, 1.0, len(self.coeffs)))
                    points = critical_points(samples, -1.0, 1.0)
            except FloatingPointError:
                raise ValueError(
                    "phi overflows float64: its values or its derivative's "
                    "are past the float range on [-1, 1]"
                ) from None
        return points[points > -1.0].tolist()

    @cached_property
    def _candidate_values(self) -> np.ndarray:
        """phi at -1 and at each candidate, from one evaluation: an
        interval check's values at every point but cos_theta."""
        return read_only(self._values(np.array([-1.0, *self._candidates])))


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

    @property
    def poly(self) -> GegenbauerPoly:
        """phi + c as a Delsarte polynomial P, the inverse of
        ``pfender_form``; a phi that is not Gegenbauer raises ValueError."""
        if self.phi.basis != "gegenbauer":
            raise ValueError(f"a {self.phi.basis} phi is not a Gegenbauer polynomial")
        coeffs = self.phi.coeffs.copy()
        coeffs[0] += self.c
        return GegenbauerPoly(self.phi.dim, coeffs)


@dataclass
class PfenderCheckResult:
    certificate: PfenderCertificate
    applicable: bool
    reason: str | None
    n: int
    slack: int | None  # bound_int - n when applicable (n <= bound_int)


def condition_i(phi: PhiSpec) -> tuple[bool, str]:
    """Condition (i) for every code of phi's dimension at once: phi is a
    combination of the G_k, each positive definite on the sphere, whose
    coefficients are all >= 0 exactly. Returns the verdict and evidence."""
    if phi.basis != "gegenbauer":
        return False, (
            "condition (i) not established: structural mode requires a "
            "Gegenbauer representation"
        )
    min_coeff = float(np.min(phi.coeffs))
    if min_coeff < 0.0:
        return False, (
            "condition (i) not established: negative Gegenbauer coefficient "
            f"{min_coeff!r}"
        )
    return True, (
        f"nonnegative Gegenbauer coefficients for dimension {phi.dim} "
        f"(min coefficient {min_coeff!r})"
    )


def _checked_cos_theta(cos_theta) -> float:
    cos_theta = float(cos_theta)
    if not -1.0 <= cos_theta <= 1.0:
        raise ValueError("cos_theta must lie in [-1, 1]")
    return cos_theta


def interval_margin(phi: PhiSpec, c: float, cos_theta: float):
    """(max, argmax) of phi(r) + c on [-1, cos_theta], both exact up to
    rounding: a polynomial peaks at an endpoint or a critical point, and a
    table at an endpoint or a node. The candidates are -1, cos_theta and
    the critical points (or nodes) between them, in that order, and the
    first maximum wins. Each value is phi's own value plus c: phi keeps
    its values at every candidate but cos_theta, so a check computes
    phi(cos_theta) alone, at the one float."""
    cos_theta = _checked_cos_theta(cos_theta)
    candidates = phi._candidates
    hi = bisect.bisect_left(candidates, cos_theta)
    known = phi._candidate_values
    values = np.concatenate((known[:1], [phi._values(cos_theta)], known[1 : 1 + hi])) + c
    best = int(values.argmax())
    location = (-1.0, cos_theta)[best] if best < 2 else candidates[best - 2]
    return float(values[best]), location


def bound_values(phi: PhiSpec, c: float) -> tuple[float, int, bool]:
    """The bound (phi(1) + c) / c, its floor, and whether phi(1) + c <= 1
    (then the bound is also at most 1/c). Every G_k(1) and power of 1 is
    1, so phi(1) + c is the exactly rounded sum of a polynomial's
    coefficients and c, or of a table's last value and c: for (P - a_0,
    a_0) it is P(1) bit for bit, compared with 1 exactly. A phi(1) + c or a
    bound past the float range raises ValueError, naming c."""
    terms = phi._terms[-1:] if phi.basis == "table" else phi._terms
    try:
        top = math.fsum([*terms, c])
    except OverflowError:
        raise ValueError(f"phi(1) + c is past the float range, with c = {c!r}") from None
    bound_real = top / c
    if math.isinf(bound_real):
        raise ValueError(
            f"c = {c!r} is too small: the bound (phi(1) + c) / c = "
            f"{top!r} / {c!r} is past the float range"
        )
    return bound_real, math.floor(bound_real + 1e-9), top <= 1.0


def stored_bound_mismatches(
    stored, bound_real: float, bound_int: int
) -> dict[str, str]:
    """The stored bounds of ``stored`` (a certificate) that disagree with
    the bound and floor that ``bound_values`` computed, each field name
    mapped to its message: ``bound_real`` must lie within 1e-9 relative
    of the bound, and ``bound_int`` must equal the floor."""
    mismatches = {}
    # written so that a NaN stored bound fails
    if not abs(bound_real - stored.bound_real) <= 1e-9 * max(1.0, abs(bound_real)):
        mismatches["bound_real"] = (
            f"bound arithmetic: stored {stored.bound_real!r} vs (phi(1) + c)/c = "
            f"{bound_real!r}"
        )
    if stored.bound_int != bound_int:
        mismatches["bound_int"] = (
            f"bound_int {stored.bound_int} is not floor((phi(1) + c)/c) = {bound_int}"
        )
    return mismatches


def _certify(phi, c, cos_theta, variant, ok_i, evidence, finite_set=None):
    """The certificate (phi, c) with its report, given condition (i)'s
    verdict; condition (ii) is checked on [-1, cos_theta], or only on
    the off-diagonal values r of an evaluation matrix M when
    ``finite_set`` = (M, phi at every clipped entry of M, row-major) is
    given. A c that is not positive and finite, or a cos_theta outside
    [-1, 1], raises ValueError.

    Condition (ii) passes with a margin up to COND_TOL. A per-code
    verdict on condition (i) and the finite set's values are floats
    computed from a code, so those two keep their float tolerances even
    where a certificate's stored coefficients are checked exactly."""
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be strictly positive and finite, got {c!r}")
    c = float(float_array(c, "c"))
    cos_theta = _checked_cos_theta(cos_theta)
    if finite_set is None:
        margin, location = interval_margin(phi, c, cos_theta)
    elif len(finite_set[0]) > 1:
        M, phi_values = finite_set
        shifted = phi_values + c
        # the diagonal is not in the set: the first maximum is then the
        # first among the off-diagonal values, row-major
        shifted[:: len(M) + 1] = -math.inf
        best = int(shifted.argmax())
        # the entry of M itself, unclipped
        margin, location = float(shifted[best]), M.item(best)
    else:
        margin, location = -math.inf, None
    ok_ii = margin <= COND_TOL
    messages = []
    if not ok_ii:
        messages.append(
            f"{_NOT_A_CERTIFICATE}phi(r) + c = {margin!r} at r = {location!r}"
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
        cos_theta=cos_theta,
        variant=variant,
        bound_real=bound_real,
        bound_int=bound_int,
        verification=verification,
    )


def pfender_form(poly: GegenbauerPoly) -> tuple[PhiSpec, float]:
    """The structural Pfender certificate (phi, c) = (P - a_0, a_0) that a
    Delsarte polynomial P is: phi + c = P and (phi(1) + c) / c = P(1) / a_0
    (Pfender, J. Combin. Theory A 114, 2007)."""
    coeffs = poly.coeffs.copy()
    c = float(coeffs[0])
    coeffs[0] = 0.0
    return PhiSpec("gegenbauer", coeffs, dim=poly.dim), c


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


def double_sum(phi: PhiSpec, M: np.ndarray) -> float:
    """sum_{j,k} phi(M[j,k]) including diagonal terms.

    Entries must lie in [-1, 1] up to 1e-12 (the code axioms guarantee
    this); anything further out raises, naming the offending cell.
    """
    from . import codes

    return float(phi._values(codes._clipped_entries(M)).sum())


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
    off-diagonal values f_j(tau_k). When both conditions hold, n must be
    at most bound_int; a violation raises TheoremViolationError (it would
    disprove the bound) instead of being folded into the report. A
    cos_theta outside [-1, 1] raises ValueError in either variant, and a
    code that fails its own axioms at cos_theta raises ValueError with
    the failures ``codes.verify`` reports.

    Condition (i) is the double sum of phi over the code's evaluation
    values, accepted down to -COND_TOL * n^2, and the finite-set variant
    compares phi + c at those values with COND_TOL. Their inputs are
    floats computed from the code, so both keep these float tolerances,
    even where a certificate's stored coefficients are checked exactly.
    """
    if variant not in ("interval", "finite_set"):
        raise ValueError(f"unknown variant {variant!r}")
    ct = float(code.cos_theta if cos_theta is None else cos_theta)
    failures = code._failures(ct)
    if failures:
        raise ValueError(
            f"code fails its own verification at cos_theta={ct!r}: {failures}"
        )
    n = code.n
    # phi is evaluated once per pair: its sum over all n^2 values is the
    # double sum (exactly as double_sum adds it up), and its off-diagonal
    # entries are the finite set of the finite-set variant
    phi_values = phi._values(code._evaluation_entries)
    total = float(phi_values.sum())
    finite_set = None
    if variant == "finite_set":
        finite_set = (code._axiom_facts.matrix, phi_values)
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
    if not checked.passed:
        parts = []
        if not checked.condition_i_ok:
            parts.append(f"condition (i) fails: {checked.condition_i_evidence}")
        if not checked.condition_ii_ok:
            # the report's first message names the margin and its location
            # already: float reprs are a large share of a pair's cost
            parts.append(
                "condition (ii) fails: "
                + checked.messages[0].removeprefix(_NOT_A_CERTIFICATE)
            )
        reason = "certificate not applicable to this code: " + "; ".join(parts)
        return PfenderCheckResult(certificate, False, reason, n, None)
    if n > certificate.bound_int:
        raise TheoremViolationError(
            f"code with n = {n} exceeds certified bound {certificate.bound_real!r} "
            f"(phi(1) = {phi.phi_at_1!r}, c = {c!r})"
        )
    return PfenderCheckResult(certificate, True, None, n, certificate.bound_int - n)


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
        coeffs=jsonutil.json_reals(data["coeffs"], "coeffs"),
        dim=None if dim is None else _check_int(dim, "dim"),
    )


def _verification_from_json_dict(data: dict) -> PfenderVerification:
    """A stored report, read as strictly as the certificate (bool("false")
    is True); a null margin, with a null location, stands for -inf."""
    report = PfenderVerification(**jsonutil.json_object(data, "verification"))
    for name in ("condition_i_ok", "condition_ii_ok", "passed", "special_case_le_one"):
        if not isinstance(value := getattr(report, name), bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
    evidence, messages = report.condition_i_evidence, data["messages"]
    if not isinstance(evidence, str):
        raise ValueError(f"condition_i_evidence must be a string, got {evidence!r}")
    if not isinstance(messages, list) or not all(isinstance(m, str) for m in messages):
        raise ValueError(f"messages must be an array of strings, got {messages!r}")
    if report.condition_ii_location is None and report.condition_ii_margin is None:
        report.condition_ii_margin = -math.inf
    else:
        for name in ("condition_ii_margin", "condition_ii_location"):
            setattr(report, name, jsonutil.json_real(getattr(report, name), name))
    return report


def certificate_to_json_dict(cert: PfenderCertificate) -> dict:
    """The certificate file, with its report when ``cert.verification`` is
    set."""
    data = {
        "kind": "pfender",
        "variant": cert.variant,
        "phi": phi_to_json_dict(cert.phi),
        "c": float(cert.c),
        "cos_theta": float(cert.cos_theta),
        "bound_real": float(cert.bound_real),
        "bound_int": int(cert.bound_int),
    }
    if cert.verification is not None:
        # the report's fields in their order; asdict would deep-copy them
        report = data["verification"] = dict(vars(cert.verification))
        if report["condition_ii_location"] is None:
            # -inf, a finite set with no off-diagonal value: dumps refuses it
            report["condition_ii_margin"] = None
    return data


def certificate_from_json_dict(data: dict) -> PfenderCertificate:
    """A certificate file, with its stored report if it has one. A "dgs"
    file of older versions, a Delsarte polynomial P, loads as the interval
    certificate ``pfender_form(P)``, without the report it stores."""
    kind = jsonutil.json_object(data, "pfender certificate").get("kind")
    verification = None
    if kind == "dgs":
        coeffs = jsonutil.json_reals(data["gegenbauer_coeffs"], "gegenbauer_coeffs")
        dim = _check_int(data["dim"], "dim")
        phi, c = pfender_form(GegenbauerPoly(dim, coeffs))
        variant = "interval"
    elif kind == "pfender":
        phi = phi_from_json_dict(data["phi"])
        c = jsonutil.json_real(data["c"], "c")
        variant = data["variant"]
        if variant not in ("interval", "finite_set"):
            raise ValueError(f"unknown certificate variant {variant!r}")
        if "verification" in data:
            verification = _verification_from_json_dict(data["verification"])
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return PfenderCertificate(
        phi=phi,
        c=c,
        cos_theta=jsonutil.json_real(data["cos_theta"], "cos_theta"),
        variant=variant,
        bound_real=jsonutil.json_real(data["bound_real"], "bound_real"),
        bound_int=_check_int(data["bound_int"], "bound_int"),
        verification=verification,
    )
