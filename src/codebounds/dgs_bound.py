"""Delsarte linear programming bound with certified sign conditions.

For a dimension d and angle ceiling cos_theta, any polynomial
P = sum a_k G_k^{(d)} with a_0 > 0, a_k >= 0, and P <= 0 on
[-1, cos_theta] bounds every such code by P(1) / a_0. With a_0
normalized to 1 the best such bound at a fixed degree is a linear
program over the remaining coefficients. ``lp_bound`` takes
Levenshtein's f_m where the Boyvalenkov-Danev-Bumova test shows it is that
optimum (``levenshtein``), and otherwise solves the LP on a Chebyshev grid
grown by cutting planes, with a Newton polish on its active set. f_m, a
polished P or the last round is measured once, by the verifier's
``pfender.interval_margin`` on its Pfender form phi = P - 1
(``_measured``), and one rule (``_certified``) lowers its a_0 alone by
the shift that maximum sets, to the certificate (phi, 1 - shift), which
``verify_certificate`` re-checks from a file by one ``pfender_bound`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact, levenshtein, pfender
from ._scalar import _validate_inputs
from .errors import CodeBoundsError, LPFailureError, NoCertificateError
from .gegenbauer import _derivative_recursion, basis_values
from .linprog import LinearProgram, solve_lp
from .scanning import chebyshev_points, critical_points

MAX_ROUNDS = 10
# Chebyshev points of the first round's LP
GRID_POINTS = 2000
# rows spread evenly over the grid gap around each positive maximum
GAP_ROWS = 7
# Newton steps of a polish, each from the LP answer's active set
NEWTON_STEPS = 3

__all__ = [
    "BoundTableRow",
    "lp_bound",
    "verify_certificate",
    "bound_table",
    "certificate_to_json_dict",
    "certificate_from_json_dict",
]

# a certificate is written and read by pfender's one file format
certificate_to_json_dict = pfender.certificate_to_json_dict
certificate_from_json_dict = pfender.certificate_from_json_dict


@dataclass
class BoundTableRow:
    degree: int
    certificate: pfender.PfenderCertificate | None  # None: none at this degree


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


def _maximum(d, coeffs, sample_basis, cos_theta: float):
    """P's values at -1, cos_theta and its critical points, where its
    maximum on [-1, cos_theta] lies, and those critical points: one matvec
    with the G_k at the Chebyshev-Lobatto points, and one evaluation."""
    critical = critical_points(coeffs @ sample_basis, -1.0, cos_theta)
    points = np.concatenate(([-1.0, cos_theta], critical))
    return coeffs @ basis_values(d, len(coeffs) - 1, points), critical


def _dual_bound(cos_theta, values, y, t):
    """L_dual = 1 + sum y, a lower bound on P(1) of every certificate of the
    degree by LP duality (Delsarte, Goethals & Seidel, Geom. Dedicata 6,
    1977), for multipliers y at the roots t in [-1, cos_theta] and the tight
    ends that pass ``levenshtein.dual_values``, as f_m's weights must
    (``values``: G_1..G_degree at those points, one column each); -inf, no
    bound, otherwise."""
    usable = np.all((-1.0 <= t) & (t <= cos_theta))
    usable = usable and levenshtein.dual_values(values.tolist(), y.tolist()) is not None
    return 1.0 + math.fsum(y.tolist()) if usable else -math.inf


def _polish(d, cos_theta, solution, points, rows, critical, p_at_1):
    """A round's LP answer polished on its active set by a KKT Newton
    iteration (Hettich & Kortanek, SIAM Rev. 35, 1993), and its dual bound.

    The unknowns are the positive a_k (k in K); one double root t_j per
    cluster of tight interior rows (those with the same nearest critical
    point of P, where t_j starts), even a lone one; and a multiplier y for
    each t_j and each tight endpoint e, started from the row duals (a
    cluster's sum). The equations are P(t_j) = 0, P(e) = 0, P'(t_j) = 0,
    and 1 + sum y G_k = 0 over the active points for each k in K: for J
    roots and E tight ends, |K| + 2 J + E equations in as many unknowns.
    Each of the NEWTON_STEPS steps takes G, G' and G'' at the t_j from one
    fused recursion. Returns the polished coefficients, the sorted active
    points and ``_dual_bound``'s L_dual, or None: when P has no critical
    point, when the system is singular, when a step is not finite or takes
    an a_k below 0, or when the polished P(1) exceeds both L_dual and the
    grid LP optimum ``p_at_1``, another lower bound, by more than noise *
    P(1). ``_measured``'s noise gate and ``_certified`` decide whether the
    polished P is a certificate.
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
    n_equal = n_active + n_roots  # the rows P = 0 and P' = 0
    a, t = x[free], critical[clusters]
    duals = solution.y[tight]
    inner_duals = duals[~at_end]
    y = np.array(
        [inner_duals[nearest == c].sum() for c in clusters] + duals[at_end].tolist()
    )
    ends = rows[tight[at_end]][:, free].T  # G_k(e), one column per tight end
    # unknowns (a, t, y); equations (P at the active points, P'(t), sum y G_k)
    jacobian = np.zeros((n_free + n_equal, n_free + n_equal))
    roots = np.arange(n_roots)
    # a diverging step can overflow; the checks after each step reject it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            g = _derivative_recursion(d, degree, t)[free + 1]
            values = np.hstack([g[:, 0], ends])  # G_k at the active points
            slope, curve = a @ g[:, 1], a @ g[:, 2]
            residual = np.concatenate([1.0 + a @ values, slope, 1.0 + values @ y])
            jacobian[:n_active, :n_free] = values.T
            jacobian[n_active:n_equal, :n_free] = g[:, 1].T
            jacobian[roots, n_free + roots] = slope
            jacobian[n_active + roots, n_free + roots] = curve
            jacobian[n_equal:, n_free : n_free + n_roots] = g[:, 1] * y[:n_roots]
            jacobian[n_equal:, n_free + n_roots :] = values
            try:
                step = np.linalg.solve(jacobian, residual)
            except np.linalg.LinAlgError:
                return None
            a -= step[:n_free]
            t -= step[n_free : n_free + n_roots]
            y -= step[n_free + n_roots :]
            # NaN fails every comparison
            if not (a.min(initial=0.0) >= 0.0 and np.all(np.isfinite(step))):
                return None
    values = np.hstack([basis_values(d, degree, t)[1:], rows[tight[at_end]].T])
    dual = _dual_bound(cos_theta, values, y, t)
    coeffs = np.zeros(degree + 1)
    coeffs[0] = 1.0
    coeffs[free + 1] = a
    p_polished = math.fsum(coeffs.tolist())
    if p_polished - max(p_at_1, dual) > _noise(p_polished) * p_polished:
        return None
    return coeffs, np.sort(np.concatenate([t, where[at_end]])), dual


def _measured(d, coeffs, cos_theta):
    """(phi, v, P(1)) for the a_0 = 1 ``coeffs`` of P: phi = P - 1, and P's
    maximum v on [-1, cos_theta] as the verifier measures it
    (``interval_margin``, whose scan and values phi keeps for
    ``_certified``). A polished P, which touches 0 by construction, needs
    v <= noise."""
    phi = pfender.PhiSpec("gegenbauer", np.append(0.0, coeffs[1:]), dim=d)
    violation = pfender.interval_margin(phi, 1.0, cos_theta)[0]
    return phi, violation, math.fsum(coeffs.tolist())


def _certified(phi, cos_theta, violation, p_at_1):
    """(certificate, shift) for ``_measured``'s (phi, v, P(1)): one rule for
    f_m, a polished P and an LP answer, shift = max(v, 0) + noise, lowers
    a_0 alone, to the certificate (phi, 1 - shift) with its ``pfender_bound``
    report on phi's kept scan (None at shift >= 1). A P_hat = P - shift
    that fails it raises CodeBoundsError (internal error)."""
    shift = max(violation, 0.0) + _noise(p_at_1)
    if shift >= 1.0:
        return None, shift
    certificate = pfender.pfender_bound(phi, 1.0 - shift, cos_theta)
    report = certificate.verification
    if not report.passed:
        raise CodeBoundsError(
            "internal error: freshly produced certificate failed verification "
            f"(condition (ii) margin {report.condition_ii_margin!r})"
        )
    return certificate, shift


def _levenshtein_path(d, cos_theta, degree, polynomial):
    """Levenshtein's f_m as the degree-``degree`` certificate, or None.

    ``polynomial`` is ``levenshtein.levenshtein_polynomial(d, cos_theta,
    degree)``, None when m(s) > degree. f_m, each a_k / a_0 the exact ratio
    of its product form correctly rounded (``exact.ratios_from_roots``),
    needs ``levenshtein.bdb_test`` (its dual weights prove it the LP
    optimum L) and ``_certified``, whose shift absorbs its float maximum
    (with exact ratios, far below the noise term). Its one message names
    the path, m(s), the least BDB test value over m(s) < j <= degree, L
    and the shift.
    """
    least = polynomial and levenshtein.bdb_test(d, cos_theta, degree, polynomial)
    if least is None:
        return None
    m, eps, zeros = polynomial
    roots = [cos_theta] + [-1.0] * eps + [z for z in zeros.tolist() for _ in range(2)]
    coeffs = np.array(exact.ratios_from_roots(d, roots))
    phi, violation, p_at_1 = _measured(d, coeffs, cos_theta)
    certificate, shift = _certified(phi, cos_theta, violation, p_at_1)
    if certificate is None:
        return None
    least = repr(least) if degree > m else "none (degree = m(s))"
    certificate.verification.messages.append(
        f"Levenshtein's f_{m}, m(s) = {m}: BDB test min Q_j L over "
        f"m(s) < j <= {degree} is {least}; L = {p_at_1!r} inflated by "
        f"shift {shift!r}"
    )
    return certificate


def _levenshtein_basis(points, degree, polynomial):
    """f_m's basis of the first round's LP on the sorted grid ``points``, as
    an ``LPSolution.basis``: the x-slacks of a_{m+1}..a_degree, the row at
    cos_theta, the row at -1 when eps = 1, and the two grid rows around
    each zero of K_{k-1}. None when ``polynomial`` (as for
    ``_levenshtein_path``) is None, and where two of those rows coincide,
    as when zeros of K_{k-1} share a grid gap at d ~ 1e12. Its point is
    the degree-m P that is 0 on those rows, f_m with each double root
    split across its grid gap, so it is <= 0 on the whole grid; only its
    B^-1 c, the row duals, may need ``solve_lp``'s repair."""
    if polynomial is None:
        return None
    m, eps, zeros = polynomial
    right = np.clip(np.searchsorted(points, zeros), 1, len(points) - 1)
    rows = np.concatenate([[len(points) - 1], [0] * eps, right - 1, right])
    if len(set(rows.tolist())) < len(rows):
        return None
    return np.concatenate([np.arange(m, degree), degree + rows.astype(int)])


def lp_bound(d: int, cos_theta: float, degree: int) -> pfender.PfenderCertificate:
    """Best degree-``degree`` LP bound for (d, cos_theta), post-validated.

    First, Levenshtein's path (``_levenshtein_path``): where the BDB test
    proves f_m the LP optimum and its shift is below 1, it is the
    certificate and no LP runs.

    The first round's LP enforces the sign condition on a fixed grid of
    GRID_POINTS Chebyshev points of [-1, cos_theta], which the cutting
    planes grow. Where m(s) <= degree it starts from f_m's basis on that
    grid (``_levenshtein_basis``), which ``solve_lp`` repairs by dual
    simplex pivots, and otherwise from the all-slack basis. Raises
    NoCertificateError when no polynomial of this degree can meet the sign
    condition (degree 0, or an infeasible LP), and LPFailureError when the
    first cutting-plane round's LP fails (the solver reaches its pivot
    cap, or its basis turns singular when refactorized). Each round
    appends its cutting-plane points as new LP rows and warm-starts the LP
    from the previous round's optimal basis. The rows fill the grid gap
    around each critical point where P > 0: the point itself and GAP_ROWS
    evenly spaced points (``_gap_rows``), so a round divides the violation
    by about 64 where the point alone divided it by 4. A round scans its
    LP answer once (``_maximum``): the critical points where P > 0 get the
    cuts, and they cluster the polish's active rows.

    Each round first polishes its LP answer (``_polish``), and stops at
    the polished P when its maximum (``_measured``) is at most the noise
    term: its P(1) is then within noise * P(1) of a lower bound on every
    certificate of the degree. Its report gains a message, before the
    rounds message (the P(1) shifted, the shift, the rounds), that
    names the Newton steps, the active points, L_dual (-inf where
    ``_dual_bound`` rejects it), the grid LP optimum and the gap
    bound_real / max(L_dual, optimum) - 1.

    An unpolished round whose P has no critical point above 0 adds no
    cuts and ends the rounds, as does MAX_ROUNDS. A later round's LP that
    fails, which the rounds message names, or that takes no pivot, which
    repeats the round before it, ends them without being taken. Only a
    degree-1 P (no critical point), or rounds whose every polish fails,
    end in an unpolished LP answer, shifted by the same rule as the rest.

    The last round taken is certified by ``_certified``, which verifies
    every path's certificate; when its shift is >= 1, NoCertificateError
    names its maximum, the shift and the noise term, which alone reaches 1
    at P(1) > 3.3e14.
    """
    _validate_inputs(d, cos_theta, degree)
    if degree < 1:
        raise NoCertificateError(
            "no certificate at this degree: with only a_0 > 0 the polynomial "
            "is a positive constant and cannot be <= 0 on the interval"
        )
    cos_theta = float(cos_theta)
    polynomial = levenshtein.levenshtein_polynomial(d, cos_theta, degree)
    certificate = _levenshtein_path(d, cos_theta, degree, polynomial)
    if certificate is not None:
        return certificate
    points = chebyshev_points(-1.0, cos_theta, GRID_POINTS)
    rows = basis_values(d, degree, points)[1:].T
    # G_0..G_degree at the degree + 1 Chebyshev-Lobatto points of the
    # interval: each round samples P there as one matvec
    sample_basis = basis_values(
        d, degree, chebyshev_points(-1.0, cos_theta, degree + 1)
    )
    basis = _levenshtein_basis(points, degree, polynomial)
    polish, failed_round = None, ""
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
            # the LP is only a search step: certify the round before it
            failed_round = f"; round {round_index + 1} LP status {solution.status!r}"
            break
        # a later LP that took no pivot repeats the previous round's basis
        if round_index and solution.iterations == 0:
            break
        rounds_used = round_index + 1
        basis = solution.basis
        coeffs = np.concatenate(([1.0], solution.x))
        p_at_1 = math.fsum(coeffs.tolist())
        # P's maximum is at -1, cos_theta or a critical point
        values, critical = _maximum(d, coeffs, sample_basis, cos_theta)
        found = _polish(d, cos_theta, solution, points, rows, critical, p_at_1)
        measured = found and _measured(d, found[0], cos_theta)
        if measured and measured[1] <= _noise(measured[2]):
            polish = (p_at_1, *found[1:])
            break
        peaks = critical[values[2:] > 0.0]
        if not peaks.size or rounds_used == MAX_ROUNDS:
            break
        new_points = _gap_rows(np.sort(points), peaks)
        # appended after the old rows, so the row numbers in ``basis`` hold
        points = np.concatenate([points, new_points])
        rows = np.vstack([rows, basis_values(d, degree, new_points)[1:].T])

    if polish is None:
        measured = _measured(d, coeffs, cos_theta)
    phi, violation, p_at_1 = measured
    certificate, shift = _certified(phi, cos_theta, violation, p_at_1)
    if certificate is None:
        raise NoCertificateError(
            f"residual sign violation {violation!r} after {rounds_used} "
            f"cutting-plane rounds on a {GRID_POINTS}-point grid cannot be "
            f"absorbed by shift {shift!r} (noise term {_noise(p_at_1)!r}){failed_round}"
        )
    report = certificate.verification
    if polish is not None:
        optimum, active, dual = polish
        gap = certificate.bound_real / max(optimum, dual) - 1.0
        report.messages.append(
            f"Newton-polished in {NEWTON_STEPS} steps on the active points "
            f"[{', '.join(f'{t:.6g}' for t in active)}]: dual bound {dual!r}, "
            f"grid LP optimum {optimum!r}, gap {gap!r}"
        )
    report.messages.append(
        f"P(1) {p_at_1!r} inflated by shift {shift!r} over "
        f"{rounds_used} cutting-plane rounds{failed_round}"
    )
    return certificate


def verify_certificate(cert: pfender.PfenderCertificate) -> pfender.PfenderVerification:
    """Independently re-check a stored interval certificate by one
    ``pfender.pfender_bound`` call on (phi, c) (every Gegenbauer
    coefficient >= 0 exactly, phi + c <= COND_TOL on [-1, cos_theta], the
    bound (phi(1) + c)/c and its floor), then compare the stored bounds
    (``pfender.stored_bound_mismatches``); all failures are collected. A
    c <= 0 or a bound past the float range fails with pfender_bound's
    message alone; a finite-set certificate, which needs its code, or a
    cos_theta outside [-1, 1] raises ValueError.
    """
    if cert.variant != "interval":
        raise ValueError(f"a {cert.variant} certificate is checked against its code")
    cos_theta = pfender._checked_cos_theta(cert.cos_theta)
    try:
        structural = pfender.pfender_bound(cert.phi, cert.c, cos_theta)
    except ValueError as exc:
        margin, location = pfender.interval_margin(cert.phi, cert.c, cos_theta)
        ok_i, evidence = pfender.condition_i(cert.phi)
        return pfender.PfenderVerification(
            ok_i, evidence, False, margin, location, False, False, [str(exc)]
        )
    report = structural.verification
    mismatches = pfender.stored_bound_mismatches(
        cert, structural.bound_real, structural.bound_int
    )
    report.messages += mismatches.values()
    report.passed = report.passed and not mismatches
    return report


def bound_table(d: int, cos_theta: float, degrees) -> list[BoundTableRow]:
    """One lp_bound row per degree, in the given order (None where it
    raises NoCertificateError)."""
    rows = []
    for m in degrees:
        try:
            cert = lp_bound(d, cos_theta, m)
        except NoCertificateError:
            cert = None
        rows.append(BoundTableRow(m, cert))
    return rows
