"""Delsarte linear programming bound with certified sign conditions.

For a dimension d and angle ceiling cos_theta, any polynomial
P = sum a_k G_k^{(d)} with a_0 > 0, a_k >= 0, and P <= 0 on
[-1, cos_theta] bounds every such code by P(1) / a_0. With a_0
normalized to 1 the best such bound at a fixed degree is a linear
program over the remaining coefficients; the sign condition is enforced
on a Chebyshev grid, and the grid is grown with cutting planes that fill
the grid gap around each critical point of P (a root of P') where P > 0,
until the residual violation is negligible or stops falling. Once the LP's
active set keeps its shape, a Newton polish on that set (double roots,
touching endpoints, positive coefficients) can end the rounds early: the
grid LP's optimum is a lower bound on every certificate of the degree
(each is <= 0 on the grid), so a polished P that is <= 0 on the interval
up to evaluation noise, with P(1) within that noise of the optimum, gives
up no bound. The final polynomial is shifted and rescaled so it is
genuinely nonpositive on the interval, which turns the LP output into a
certificate that stands on its own. P is the structural Pfender
certificate (P - a_0, a_0), and ``verify_certificate`` is one call of
``pfender.pfender_bound`` on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonutil, pfender
from ._scalar import _check_int, _validate_inputs
from .errors import CodeBoundsError, LPFailureError, NoCertificateError
from .gegenbauer import GegenbauerPoly, _derivative_recursion, basis_values
from .linprog import LinearProgram, solve_lp
from .scanning import chebyshev_points, critical_points

MAX_ROUNDS = 10
# Chebyshev points of the first round's LP
GRID_POINTS = 2000
INFLATION_TARGET = 1e-4
# rows spread evenly over the grid gap around each positive maximum
GAP_ROWS = 7
# Newton steps of a polish, each from the LP answer's active set
NEWTON_STEPS = 3
# a polish is tried only when the round raised the LP optimum by at most
# this many times noise * P(1): a round cuts the gap to the optimum on the
# interval about (GAP_ROWS + 1)^2-fold, so a larger rise leaves a gap that
# no polish closes
POLISH_RISE = 2 * (GAP_ROWS + 1) ** 2

__all__ = [
    "DGSVerification",
    "DGSCertificate",
    "BoundTableRow",
    "lp_bound",
    "pfender_form",
    "verify_certificate",
    "bound_table",
    "certificate_to_json_dict",
    "certificate_from_json_dict",
]


@dataclass
class DGSVerification:
    passed: bool
    max_sign_violation: float  # max of P over [-1, cos_theta]
    violation_location: float
    min_coeff: float
    bound_error: float  # |bound_real - P(1)/a_0|, inf if pfender_bound rejects a_0
    messages: list[str] = field(default_factory=list)


@dataclass
class DGSCertificate:
    cos_theta: float
    poly: GegenbauerPoly  # dimension and coefficients (a_0, ..., a_m)
    bound_real: float
    bound_int: int
    verification: DGSVerification | None = None


@dataclass
class BoundTableRow:
    degree: int
    certificate: DGSCertificate | None  # None: no certificate at this degree


def _gap_rows(grid: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """New grid points: each peak, plus GAP_ROWS points evenly spaced over
    the gap between the two grid points around it.

    P is tangent to 0 near a peak, so its excess over the gap's rows grows
    with the square of the gap: splitting it into GAP_ROWS + 1 parts cuts
    the violation about (GAP_ROWS + 1)^2-fold, where the peak alone only
    bisects the gap. Returns the points sorted, without duplicates or
    points already on the (sorted) grid.
    """
    right = np.clip(np.searchsorted(grid, peaks), 1, len(grid) - 1)
    left, width = grid[right - 1], grid[right] - grid[right - 1]
    fractions = np.arange(1, GAP_ROWS + 1) / (GAP_ROWS + 1)
    filled = left[:, None] + width[:, None] * fractions
    # by hand rather than np.setdiff1d, whose np.unique imports numpy.ma
    points = np.sort(np.concatenate([peaks, filled.ravel()]))
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = points[1:] != points[:-1]
    keep &= grid[np.minimum(np.searchsorted(grid, points), len(grid) - 1)] != points
    return points[keep]


def _noise(p_at_1: float) -> float:
    """The evaluation noise of a P whose value at 1 is ``p_at_1``: what the
    final shift adds on top of P's maximum."""
    return 1e-10 + 3e-15 * abs(p_at_1)


def _maximum(poly: GegenbauerPoly, sample_basis, cos_theta: float):
    """P's values at -1, cos_theta and its critical points, where its
    maximum on [-1, cos_theta] lies, and those critical points: one matvec
    with the G_k at the Chebyshev-Lobatto points, and one evaluation."""
    critical = critical_points(poly.coeffs @ sample_basis, -1.0, cos_theta)
    return poly(np.concatenate(([-1.0, cos_theta], critical))), critical


def _polish(d, cos_theta, solution, points, rows, critical, p_at_1):
    """A round's LP answer polished on its active set by a KKT Newton
    iteration (Hettich & Kortanek, SIAM Rev. 35, 1993).

    The unknowns are the positive a_k (k in K); one double root t_j per
    cluster of tight interior rows (those with the same nearest critical
    point of P, where t_j starts); and a multiplier y for each t_j and
    each tight endpoint e, started from the row duals (a cluster's sum).
    The equations, as many as the unknowns: P(t_j) = 0, P(e) = 0,
    P'(t_j) = 0, and 1 + sum y G_k = 0 over the active points for each k
    in K. Each of the NEWTON_STEPS steps takes G, G' and G'' at the t_j
    from one fused recursion. Returns the polished coefficients and the sorted active
    points, or None: when P has no critical point, when 2 J + E != |K|,
    when the system is singular, when a step takes a t_j out of
    (-1, cos_theta) or an a_k or a y below 0, or when the polished P(1)
    exceeds the LP optimum ``p_at_1`` by more than noise * P(1).
    """
    if not critical.size:
        return None
    x = solution.x
    degree = len(x)
    free = np.flatnonzero(x > 0.0)  # k - 1 for each k in K
    tight = solution.basis[solution.basis >= degree] - degree
    where = points[tight]
    at_end = (where == -1.0) | (where == cos_theta)
    nearest = np.abs(where[~at_end][:, None] - critical).argmin(axis=1)
    clusters = sorted(set(nearest.tolist()))
    n_free, n_roots = len(free), len(clusters)
    n_active = n_roots + int(at_end.sum())
    if n_roots + n_active != n_free:
        return None
    a, t = x[free], critical[clusters]
    duals = solution.y[tight]
    inner_duals = duals[~at_end]
    y = np.array(
        [inner_duals[nearest == c].sum() for c in clusters] + duals[at_end].tolist()
    )
    ends = rows[tight[at_end]][:, free].T  # G_k(e), one column per tight end
    # unknowns (a, t, y); equations (P at the active points, P'(t), sum y G_k)
    jacobian = np.zeros((2 * n_free, 2 * n_free))
    roots = np.arange(n_roots)
    # a diverging step can overflow; the checks after each step reject it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            g = _derivative_recursion(d, degree, t)[free + 1]
            values = np.hstack([g[:, 0], ends])  # G_k at the active points
            slope, curve = a @ g[:, 1], a @ g[:, 2]
            residual = np.concatenate([1.0 + a @ values, slope, 1.0 + values @ y])
            jacobian[:n_active, :n_free] = values.T
            jacobian[n_active:n_free, :n_free] = g[:, 1].T
            jacobian[roots, n_free + roots] = slope
            jacobian[n_active + roots, n_free + roots] = curve
            jacobian[n_free:, n_free : n_free + n_roots] = g[:, 1] * y[:n_roots]
            jacobian[n_free:, n_free + n_roots :] = values
            try:
                step = np.linalg.solve(jacobian, residual)
            except np.linalg.LinAlgError:
                return None
            a -= step[:n_free]
            t -= step[n_free : n_free + n_roots]
            y -= step[n_free + n_roots :]
            # NaN fails every comparison
            if not (
                np.all((-1.0 < t) & (t < cos_theta))
                and a.min(initial=0.0) >= 0.0
                and y.min(initial=0.0) >= 0.0
                and np.all(np.isfinite(step))
            ):
                return None
    coeffs = np.zeros(degree + 1)
    coeffs[0] = 1.0
    coeffs[free + 1] = a
    p_polished = math.fsum(coeffs.tolist())
    if p_polished - p_at_1 > _noise(p_polished) * p_polished:
        return None
    return coeffs, np.sort(np.concatenate([t, where[at_end]]))


def lp_bound(d: int, cos_theta: float, degree: int) -> DGSCertificate:
    """Best degree-``degree`` LP bound for (d, cos_theta), post-validated.

    The first round's LP enforces the sign condition on a fixed grid of
    GRID_POINTS Chebyshev points of [-1, cos_theta], which the cutting
    planes grow. Raises NoCertificateError when no polynomial of this
    degree can meet the sign condition (degree 0, or an infeasible LP),
    and LPFailureError when the first cutting-plane round's LP fails
    (the solver reaches its pivot cap, or its basis turns singular when
    refactorized). When a later round's LP fails, the previous round's
    polynomial is shifted and certified instead, and the verification
    message names the failed round. Each round appends its cutting-plane
    points as new LP rows and warm-starts the LP from the previous round's
    optimal basis. The rows
    fill the grid gap around each critical point where P > 0: the point
    itself and GAP_ROWS evenly spaced points (``_gap_rows``), so a round
    divides the violation by about 64 where the point alone divided it by
    4. Each round finds the critical points from P's values at the
    degree + 1 Chebyshev-Lobatto points of the interval, one matvec with
    the G_k there (tabulated once per call), and evaluates P once, at -1,
    cos_theta and those points: the maximum is the round's violation, and
    the critical points where P > 0 get the cuts. The rounds end when the
    shift's inflation of the bound is below INFLATION_TARGET, when a round
    leaves a violation below 1 within a factor 2 of the previous one (the
    cuts no longer bite), or after MAX_ROUNDS.

    A round that ends none of these ways, whose active set has the shape
    of the previous round's (as many positive a_k and tight rows), and
    whose LP optimum rose by at most POLISH_RISE * noise * P(1), polishes
    its LP answer (``_polish``). The rounds stop at the polished P when
    its maximum, measured as a round measures it, is at most the noise
    term 1e-10 + 3e-15 P(1), and its P(1) exceeds the round's grid LP
    optimum by at most noise * P(1); otherwise the polished P is dropped
    and the rounds go on as if it had not been tried. A polished P touches
    0 by construction, so it is always shifted by max(v, 0) + noise, never
    skipped as an unpolished P's shift is when v + noise <= COND_TOL. Its
    report gains a message, before the rounds message, that names the
    Newton steps, the active points, the grid LP optimum and the gap
    bound_real / optimum - 1.

    Every returned certificate has passed ``verify_certificate``, the
    Pfender checks of (P - a_0, a_0).
    """
    _validate_inputs(d, cos_theta, degree)
    if degree < 1:
        raise NoCertificateError(
            "no certificate at this degree: with only a_0 > 0 the polynomial "
            "is a positive constant and cannot be <= 0 on the interval"
        )
    cos_theta = float(cos_theta)
    points = chebyshev_points(-1.0, cos_theta, GRID_POINTS)
    rows = basis_values(d, degree, points)[1:].T
    # G_0..G_degree at the degree + 1 Chebyshev-Lobatto points of the
    # interval: each round samples P there as one matvec
    sample_basis = basis_values(
        d, degree, chebyshev_points(-1.0, cos_theta, degree + 1)
    )
    basis = None
    polish = previous_shape = previous_p_at_1 = None
    failed_round = ""
    previous_violation = math.inf
    for round_index in range(MAX_ROUNDS):
        # min sum(a) s.t. sum_k a_k G_k(r_i) <= -1, a >= 0 (a_0 = 1 moved to rhs)
        lp = LinearProgram(np.ones(degree), rows, np.full(len(rows), -1.0))
        solution = solve_lp(lp, basis)
        if solution.status == "infeasible":
            raise NoCertificateError(
                f"no certificate at this degree: the degree-{degree} LP at "
                f"cos_theta={cos_theta!r} is infeasible"
            )
        if solution.status != "optimal":
            if round_index == 0:
                raise LPFailureError(f"LP solver returned status {solution.status!r}")
            # the LP is only a search step: keep the last checked polynomial
            failed_round = f"; round {round_index + 1} LP status {solution.status!r}"
            break
        rounds_used = round_index + 1
        basis = solution.basis
        coeffs = np.concatenate(([1.0], solution.x))
        poly = GegenbauerPoly(d, coeffs)
        p_at_1 = poly.at_one()
        # P's maximum is at -1, cos_theta or a critical point
        values, critical = _maximum(poly, sample_basis, cos_theta)
        violation = float(values.max())
        # shifting out a violation v inflates the bound by v (P(1) - 1) / (1 - v);
        # no shift absorbs v >= 1, so the cutting planes go on there
        converged = violation <= 0.0 or (
            violation < 1.0
            and violation * (p_at_1 - 1.0) / (1.0 - violation) <= INFLATION_TARGET
        )
        # below 1, a round that moves the violation by less than 2x either way
        # has stalled; a larger rise means the optimum moved to new peaks
        stalled = 0.0 < violation < 1.0 and (
            previous_violation / 2.0 < violation < 2.0 * previous_violation
        )
        if converged or stalled or round_index == MAX_ROUNDS - 1:
            break
        # the active set's shape: the positive a_k and the tight rows
        shape = (np.count_nonzero(solution.x), np.count_nonzero(basis >= degree))
        if (
            shape == previous_shape
            and p_at_1 - previous_p_at_1 <= POLISH_RISE * _noise(p_at_1) * p_at_1
        ):
            found = _polish(d, cos_theta, solution, points, rows, critical, p_at_1)
            if found is not None:
                candidate = GegenbauerPoly(d, found[0])
                top = float(_maximum(candidate, sample_basis, cos_theta)[0].max())
                if top <= _noise(candidate.at_one()):
                    polish = (p_at_1, found[1])
                    coeffs, p_at_1, violation = found[0], candidate.at_one(), top
                    break
        previous_shape, previous_p_at_1 = shape, p_at_1
        previous_violation = violation
        new_points = _gap_rows(np.sort(points), critical[values[2:] > 0.0])
        if not new_points.size:
            break
        # appended after the old rows, so the row numbers in ``basis`` hold
        points = np.concatenate([points, new_points])
        rows = np.vstack([rows, basis_values(d, degree, new_points)[1:].T])

    # Shift and rescale so the emitted polynomial is nonpositive on the
    # whole interval: P_hat = (P - v) / (1 - v) keeps a_0 = 1 and all the
    # other coefficients nonnegative, at the cost of a slightly larger
    # bound (recorded in the report). Skipped when the residual violation
    # plus evaluation noise already sits inside the verifier tolerance, but
    # never for a polished P: it touches 0 by construction. ``violation``
    # and ``p_at_1`` are the maximum and P(1) of ``coeffs``, the last
    # round's LP answer or the polished one.
    noise = _noise(p_at_1)
    inside = polish is None and violation + noise <= pfender.COND_TOL
    shift = 0.0 if inside else max(violation, 0.0) + noise
    if shift >= 1.0:
        raise NoCertificateError(
            f"residual sign violation {violation!r} after {rounds_used} "
            f"cutting-plane rounds on a {GRID_POINTS}-point grid cannot be "
            f"absorbed{failed_round}"
        )
    final_coeffs = coeffs.copy()
    final_coeffs[0] = 1.0 - shift
    final_coeffs /= 1.0 - shift
    final_poly = GegenbauerPoly(d, final_coeffs)
    bound_real, bound_int, _ = pfender.bound_values(*pfender_form(final_poly))
    certificate = DGSCertificate(cos_theta, final_poly, bound_real, bound_int)
    report = verify_certificate(certificate)
    grid_bound = p_at_1
    if polish is not None:
        grid_bound, active = polish
        report.messages.append(
            f"Newton-polished in {NEWTON_STEPS} steps on the active points "
            f"[{', '.join(f'{t:.6g}' for t in active)}]: grid LP optimum "
            f"{grid_bound!r}, gap {bound_real / grid_bound - 1.0!r}"
        )
    report.messages.append(
        f"grid LP bound {grid_bound!r} inflated by shift {shift!r} over "
        f"{rounds_used} cutting-plane rounds{failed_round}"
    )
    certificate.verification = report
    if not report.passed:
        raise CodeBoundsError(
            "internal error: freshly produced certificate failed verification "
            f"(max sign violation {report.max_sign_violation!r})"
        )
    return certificate


def pfender_form(poly: GegenbauerPoly) -> tuple[pfender.PhiSpec, float]:
    """The structural Pfender certificate (phi, c) = (P - a_0, a_0) that a
    Delsarte polynomial P is: phi + c = P and (phi(1) + c) / c = P(1) / a_0
    (Pfender, J. Combin. Theory A 114, 2007)."""
    coeffs = poly.coeffs.copy()
    c = float(coeffs[0])
    coeffs[0] = 0.0
    return pfender.PhiSpec("gegenbauer", coeffs, dim=poly.dim), c


def verify_certificate(cert: DGSCertificate) -> DGSVerification:
    """Independently re-check a certificate by one ``pfender.pfender_bound``
    call on ``pfender_form(cert.poly)`` (coefficient signs, P <= COND_TOL
    on [-1, cos_theta], the bound P(1)/a_0 and its floor), then compare the
    stored bounds (``pfender.stored_bound_mismatches``); all failures are
    collected. An a_0 <= 0 or a P(1)/a_0 past the float range fails with
    pfender_bound's message alone; a cos_theta outside [-1, 1] raises
    ValueError.
    """
    cos_theta = pfender._checked_cos_theta(cert.cos_theta)
    phi, a0 = pfender_form(cert.poly)
    min_coeff = float(np.min(cert.poly.coeffs))
    try:
        structural = pfender.pfender_bound(phi, a0, cos_theta)
    except ValueError as exc:
        margin = pfender.interval_margin(phi, a0, cos_theta)
        return DGSVerification(False, *margin, min_coeff, math.inf, [str(exc)])
    checked = structural.verification
    messages = [] if checked.condition_i_ok else [checked.condition_i_evidence]
    messages += checked.messages
    ratio, floor = structural.bound_real, structural.bound_int
    messages += pfender.stored_bound_mismatches(cert, ratio, floor, "P(1)/a_0").values()
    return DGSVerification(
        passed=not messages,
        max_sign_violation=checked.condition_ii_margin,
        violation_location=checked.condition_ii_location,
        min_coeff=min_coeff,
        bound_error=abs(ratio - cert.bound_real),
        messages=messages,
    )


def bound_table(d: int, cos_theta: float, degrees) -> list[BoundTableRow]:
    """One lp_bound row per degree, each from the same GRID_POINTS grid."""
    degrees = list(degrees)
    if degrees != sorted(degrees):
        raise ValueError("degrees must be ascending")
    rows = []
    for m in degrees:
        try:
            cert = lp_bound(d, cos_theta, m)
        except NoCertificateError:
            cert = None
        rows.append(BoundTableRow(m, cert))
    return rows


def certificate_to_json_dict(cert: DGSCertificate) -> dict:
    verification = cert.verification
    return {
        "kind": "dgs",
        "dim": int(cert.poly.dim),
        "cos_theta": float(cert.cos_theta),
        "gegenbauer_coeffs": [float(v) for v in cert.poly.coeffs],
        "bound_real": float(cert.bound_real),
        "bound_int": int(cert.bound_int),
        "verification": {
            "passed": bool(verification.passed),
            "max_sign_violation": float(verification.max_sign_violation),
            "violation_location": float(verification.violation_location),
            "min_coeff": float(verification.min_coeff),
            "bound_error": float(verification.bound_error),
            "messages": list(verification.messages),
        }
        if verification is not None
        else None,
    }


def certificate_from_json_dict(data: dict) -> DGSCertificate:
    if jsonutil.json_object(data, "dgs certificate").get("kind") != "dgs":
        raise ValueError("not a dgs certificate")
    coeffs = jsonutil.json_reals(data["gegenbauer_coeffs"], "gegenbauer_coeffs")
    verification = None
    raw = data.get("verification")
    if raw is not None:
        # read as strictly as the certificate: bool("false") is True
        jsonutil.json_object(raw, "verification")
        passed, messages = raw["passed"], raw.get("messages", [])
        if not isinstance(passed, bool):
            raise ValueError(f"passed must be true or false, got {passed!r}")
        if not isinstance(messages, list) or not all(
            isinstance(m, str) for m in messages
        ):
            raise ValueError(f"messages must be an array of strings, got {messages!r}")
        reals = ("max_sign_violation", "violation_location", "min_coeff", "bound_error")
        verification = DGSVerification(
            passed, *(jsonutil.json_real(raw[name], name) for name in reals), messages
        )
    return DGSCertificate(
        cos_theta=jsonutil.json_real(data["cos_theta"], "cos_theta"),
        poly=GegenbauerPoly(_check_int(data["dim"], "dim"), coeffs),
        bound_real=jsonutil.json_real(data["bound_real"], "bound_real"),
        bound_int=_check_int(data["bound_int"], "bound_int"),
        verification=verification,
    )
