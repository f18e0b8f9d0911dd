"""Levenshtein's bound L_m(d, s), the exact Delsarte LP optimum at degree m(s),
and the Boyvalenkov-Danev-Bumova test of whether a higher degree beats it.

For s in Levenshtein's interval I_m(d) the polynomial

    f_m(t) = (t - s) (t + 1)^eps K_{k-1}(t, s)^2,  m = 2k - 1 + eps,

is the best Delsarte polynomial of degree <= m, so L = f_m(1) / a_0 is
the LP optimum at degree m(s), caps the optimum at every higher degree
and lies below every sound certificate at a lower degree. K_{k-1} is the
Christoffel-Darboux kernel of the weight (1 - t)^(alpha+1) (1 + t)^(alpha+eps),
alpha = (d - 3) / 2 (Levenshtein, Acta Appl. Math. 29, 1992; Boyvalenkov,
Dragnev, Hardin, Saff & Stoyanova, Constr. Approx. 44, 2016).

The interval ends are the largest zeros of P_k^(alpha+1, alpha) and
P_k^(alpha+1, alpha+1). Whether s lies below the largest zero of P_k is
read from the signs of the monic three-term recurrence at s (Sturm): the
first P_k that is <= 0 at s is the first with a zero at or above it (the
intervals are closed), so m(s) costs a few scalar steps and no eigenvalue
solve. The zeros of
K_{k-1}(., s) are the nodes of the k-point Gauss-Radau rule with s
prescribed (Golub, SIAM Rev. 15, 1973).

f_m's zeros alpha_i (s, those of K_{k-1}, and -1 when eps = 1) carry
Levenshtein's quadrature: with weights rho'_i > 0, 1 + sum_i rho'_i G_j(alpha_i)
is 0 for j = 1..m, and its value Q_j L at j > m is the BDB test function
(Boyvalenkov, Danev & Bumova, IEEE Trans. Inf. Theory 42, 1996). The
rho'_i are an LP-dual point at the nodes with objective 1 + sum rho'_i = L,
so when no Q_j L with j <= n is negative, no Delsarte polynomial of
degree n beats L (``bdb_test``). ``levenshtein`` rounds L = f_m(1) / a_0,
exact from f_m's float zeros (``exact.weighted_mean``), once; ``lp_bound``
expands f_m exactly from the same zeros (``exact.ratios_from_roots``).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import exact
from ._scalar import MAX_TABLE_DEGREE
from .gegenbauer import basis_values
from .linprog import within_rounding

__all__ = [
    "levenshtein_degree",
    "levenshtein_polynomial",
    "levenshtein",
    "bdb_test",
    "dual_values",
]


def _jacobi_entry(a, b, j):
    """Row j of the Jacobi matrix of P^(a, b): its diagonal entry and the
    square of the entry left of it (0 at j = 0). In monic form
    P_{j+1}(t) = (t - diagonal) P_j(t) - squared P_{j-1}(t)."""
    total = 2 * j + a + b
    diagonal = (b * b - a * a) / (total * (total + 2)) if total else (b - a) / (a + b + 2)
    if not j:
        return diagonal, 0.0
    squared = 4 * j * (j + a) * (j + b) * (j + a + b) / (
        total**2 * (total + 1) * (total - 1)
    )
    return diagonal, squared


def _search(dim, s, max_degree):
    """(m(s), the nodes of f_m but -1) or None when m(s) > ``max_degree``.

    For k = 1, 2, ... while 2k - 1 <= max_degree: the monic
    P_k^(alpha+1, alpha+eps) at s, eps = 0 then 1. The first value <= 0
    (s at or below the largest zero: the intervals are closed) gives
    m = 2k - 1 + eps. That family's k x k Jacobi matrix, its last
    diagonal entry moved to s - squared P_{k-2}(s) / P_{k-1}(s) so that s
    is an eigenvalue (Golub's Radau rule), has eigenvalues s and the
    k - 1 zeros of K_{k-1}(., s)."""
    alpha = (dim - 3) / 2
    rows = ([], [])
    values = ([0.0, 1.0], [0.0, 1.0])  # P_{k-2}(s) and P_{k-1}(s)
    for k in range(1, (max_degree + 1) // 2 + 1):
        for eps in (0, 1):
            if 2 * k - 1 + eps > max_degree:
                return None
            diagonal, squared = _jacobi_entry(alpha + 1, alpha + eps, k - 1)
            rows[eps].append((diagonal, squared))
            before, last = values[eps]
            value = (s - diagonal) * last - squared * before
            if value <= 0.0:
                entries = np.array(rows[eps])
                off = np.sqrt(entries[1:, 1])
                matrix = np.diag(entries[:, 0]) + np.diag(off, 1) + np.diag(off, -1)
                matrix[-1, -1] = s - squared * before / last
                return 2 * k - 1 + eps, np.linalg.eigvalsh(matrix)
            values[eps][:] = last, value
    return None


def levenshtein_degree(dim, s, max_degree=MAX_TABLE_DEGREE):
    """m(s): the least m with s in Levenshtein's interval I_m(dim), or None
    when m(s) > ``max_degree``."""
    found = _search(dim, s, max_degree)
    return None if found is None else found[0]


def levenshtein_polynomial(dim, s, max_degree=MAX_TABLE_DEGREE):
    """(m(s), eps, zeros): f_m(t) = (t - s) (t + 1)^eps prod_z (t - z)^2
    over the k - 1 float ``zeros`` of K_{k-1}(., s), or None when
    m(s) > ``max_degree``."""
    found = _search(dim, s, max_degree)
    if found is None:
        return None
    m, nodes = found
    return m, (m + 1) % 2, np.delete(nodes, np.abs(nodes - s).argmin())


def levenshtein(dim, s):
    """(m(s), L_m(dim, s)), or None when m(s) > MAX_TABLE_DEGREE."""
    found = levenshtein_polynomial(dim, s)
    if found is None:
        return None
    m, eps, zeros = found
    # f_m(1) / a_0 exactly from f_m's float zeros, a_0 its mean under the weight
    f = exact.monomial_from_roots([s, *[-1.0] * eps, *np.repeat(zeros, 2).tolist()])
    return m, float(sum(f) / exact.weighted_mean(dim, f))


def dual_values(rows, weights):
    """1 + sum_i w_i G_j(x_i) per row (G_j at the nodes x_i), or None unless
    every w_i >= 0 and every value is ``linprog.within_rounding`` of >= 0,
    as ``linprog.solve_lp`` tests a reduced cost (NaN fails both checks)."""
    if not all(w >= 0.0 for w in weights):
        return None
    values = []
    for row in rows:
        terms = list(map(operator.mul, weights, row))
        q = 1.0 + sum(terms)
        if not within_rounding(q, len(terms) + 1, 1.0 + sum(map(abs, terms))):
            return None
        values.append(q)
    return values


def bdb_test(dim, s, degree, polynomial):
    """The least BDB test value Q_j L over m(s) < j <= degree (inf when
    degree = m(s)) when f_m is provably the degree-``degree`` LP optimum;
    else None. ``polynomial`` is f_m as ``levenshtein_polynomial(dim, s,
    degree)`` gives it, so m(s) <= degree.

    The weights rho'_i solve the N x N system of G_j for j = 1..N at the
    N = k + eps nodes (one ``basis_values`` call). It declines when that
    system is singular, and when ``dual_values`` rejects the weights for
    j = 1..degree. No coefficient of f_m is computed here."""
    m, eps, zeros = polynomial
    nodes = [s, *zeros.tolist()] + [-1.0] * eps
    count = len(nodes)
    # G_1..G_degree, one row of node values per degree
    rows = basis_values(dim, degree, np.array(nodes))[1:]
    try:
        weights = np.linalg.solve(rows[:count], np.full(count, -1.0))
    except np.linalg.LinAlgError:
        return None
    values = dual_values(rows.tolist(), weights.tolist())
    return None if values is None else min(values[m:], default=math.inf)
