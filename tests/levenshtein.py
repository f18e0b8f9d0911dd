"""Levenshtein's bound L_m(d, s), the exact Delsarte LP optimum at degree m(s).

For s in Levenshtein's interval I_m(d) the polynomial

    f_m(t) = (t - s) (t + 1)^eps K_{k-1}(t, s)^2,  m = 2k - 1 + eps,

is the best Delsarte polynomial of degree <= m, so L = f_m(1) / a_0 is
the LP optimum at degree m(s), caps the optimum at every higher degree
and lies below every sound certificate at a lower degree. K_{k-1} is the
Christoffel-Darboux kernel of the weight (1 - t)^(alpha+1) (1 + t)^(alpha+eps),
alpha = (d - 3) / 2 (Levenshtein, Acta Appl. Math. 29, 1992; Boyvalenkov,
Dragnev, Hardin, Saff & Stoyanova, Constr. Approx. 44, 2016).

With numpy only: the interval ends are the largest zeros of
P_k^(alpha+1, alpha) and P_k^(alpha+1, alpha+1), the eigenvalues of their
Jacobi matrices, and the zeros of K_{k-1}(., s) are the nodes of the
k-point Gauss-Radau rule with s prescribed (Golub, SIAM Rev. 15, 1973).
"""

import numpy as np

from codebounds.gegenbauer import MAX_TABLE_DEGREE, quadrature_rule


def _jacobi_matrix(a, b, size):
    """The symmetric Jacobi matrix of the orthonormal P_j^(a, b), j < size."""
    j = np.arange(size, dtype=float)
    total = 2 * j + a + b
    diagonal = np.divide(
        b * b - a * a,
        total * (total + 2),
        out=np.full(size, (b - a) / (a + b + 2)),
        where=total != 0,
    )
    j, total = j[1:], total[1:]
    off = np.sqrt(
        4 * j * (j + a) * (j + b) * (j + a + b)
        / (total**2 * (total + 1) * (total - 1))
    )
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def _largest_zero(a, b, k):
    return float(np.linalg.eigvalsh(_jacobi_matrix(a, b, k))[-1]) if k else -1.0


def levenshtein_degree(dim, s):
    """m(s): the m with s in Levenshtein's interval I_m(dim), or None past
    MAX_TABLE_DEGREE."""
    alpha = (dim - 3) / 2
    for k in range(1, MAX_TABLE_DEGREE // 2 + 1):
        if s < _largest_zero(alpha + 1, alpha, k):
            return 2 * k - 1
        if s < _largest_zero(alpha + 1, alpha + 1, k):
            return 2 * k
    return None


def levenshtein_polynomial(dim, s):
    """(m(s), eps, zeros): f_m(t) = (t - s) (t + 1)^eps prod_z (t - z)^2
    over the k - 1 float ``zeros`` of K_{k-1}(., s), or None when
    m(s) > MAX_TABLE_DEGREE."""
    m = levenshtein_degree(dim, s)
    if m is None:
        return None
    k, eps = (m + 1) // 2, (m + 1) % 2
    jacobi = _jacobi_matrix((dim - 1) / 2, (dim - 3) / 2 + eps, k)
    if k > 1:
        # Golub's Radau modification: the last diagonal entry that makes s
        # an eigenvalue; the other k - 1 eigenvalues are K_{k-1}'s zeros
        head = jacobi[:-1, :-1] - s * np.eye(k - 1)
        delta = np.linalg.solve(head, jacobi[-2, -1] ** 2 * np.eye(k - 1)[-1])
        jacobi[-1, -1] = s + delta[-1]
    nodes = np.linalg.eigvalsh(jacobi)
    return m, eps, np.delete(nodes, np.abs(nodes - s).argmin())


def levenshtein(dim, s):
    """(m(s), L_m(dim, s)), or None when m(s) > MAX_TABLE_DEGREE."""
    found = levenshtein_polynomial(dim, s)
    if found is None:
        return None
    m, eps, nodes = found

    def f(t):
        t = np.asarray(t, dtype=float)
        return (t - s) * (t + 1) ** eps * np.prod((t[..., None] - nodes) ** 2, axis=-1)

    # a_0 is f's mean under the weight (1 - t^2)^alpha, exact at degree m
    points, weights = quadrature_rule(dim, m // 2 + 1)
    a_0 = float(weights @ f(points)) / float(weights.sum())
    return m, float(f(1.0)) / a_0
