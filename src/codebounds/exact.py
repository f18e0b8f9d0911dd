"""Exact arithmetic on Gegenbauer polynomials, standard library only.

``prove_nonpositive(d, coeffs, lo, hi, splits)`` decides whether
P = sum_k coeffs[k] G_k^(d) is <= 0 on [lo, hi] in exact arithmetic over
the given coefficients, floats (each a dyadic rational) or Fractions. No
rounding enters the verdict: P is proven <= 0 on the whole interval, or
refuted by a point where its exact value is > 0. ``unproven(cert)`` is
that proof for a certificate (phi, c): P = phi + c on [-1, cos_theta],
with c added to phi's a_0 exactly.

The method is integer Bernstein subdivision (Rouillier & Zimmermann,
J. Comput. Appl. Math. 162, 2004):

- The integer Gegenbauer table: G_k = T_k / D_k with
  D_k = prod_{2 <= j <= k} (j + d - 3) and T_k = (2k + d - 4) t T_{k-1}
  - (k - 1) (D_{k-1} / D_{k-2}) T_{k-2}, which has integer monomial
  coefficients. So P = Q / (D_m N) for an integer polynomial Q, N the
  coefficients' common denominator.
- On a piece [a, b] with dyadic ends a = A / 2^r and b = B / 2^r,
  2^(r n) Q(a + (b - a) u) = sum_j s_j u^j is an integer polynomial in u,
  whose scaled Bernstein coefficients C(n, k) b_k = sum_{j <= k}
  C(n - j, k - j) s_j are integers with the signs of the b_k.
- P <= 0 on the piece when every b_k <= 0 (the convex hull property). An
  end value b_0 = P(a) or b_n = P(b) above 0 refutes it. Otherwise the
  piece is bisected, up to ``max_depth`` times, after which the kernel
  raises ``UndecidedError``. A one-point interval lo = hi is the one piece
  [lo, lo], decided by the sign of P(lo).

The first pieces end at the ``splits``, for instance P's float critical
points, rounded to SPLIT_BITS bits. They only make the proof short: a
piece whose maximum lies at one of its ends needs no bisection. The
verdict never depends on them.

The same table is the program's one change of basis from monomials to
Gegenbauer polynomials, in integers over one denominator: exactly for
``gegenbauer_from_monomial`` and ``monomial_from_roots`` (prod_i
(t - r_i)), and correctly rounded for ``gegenbauer.monomial_table``,
``expand_rounded`` (``expand_in_basis`` and ``gegenbauer expand``) and
``ratios_from_roots`` (Levenshtein's f_m in ``lp_bound``, with its exact
rounding error). ``weighted_mean``, from the weight's exact moments, is the
one integral against it (``weighted_inner_product`` and Levenshtein's L).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite, lcm
from typing import NamedTuple

# the split points are rounded to multiples of 2^-SPLIT_BITS, which keeps
# the integers of each piece short
SPLIT_BITS = 30


class UndecidedError(ArithmeticError):
    """A piece still has a positive Bernstein coefficient and no positive
    end value after ``max_depth`` bisections."""


class Refuted(NamedTuple):
    """A point of the interval where P is exactly positive."""

    t: Fraction
    value: Fraction


def gegenbauer_table(d: int, m: int) -> tuple[list[list[int]], list[int]]:
    """(T, D): G_k^(d) = T_k / D_k for k = 0..m, each T_k a list of
    integer monomial coefficients, lowest degree first."""
    T, D = [[1], [0, 1]], [1, 1]
    for k in range(2, m + 1):
        ratio = D[k - 1] // D[k - 2]
        up = [0] + [(2 * k + d - 4) * c for c in T[k - 1]]
        down = T[k - 2] + [0] * (len(up) - len(T[k - 2]))
        T.append([u - (k - 1) * ratio * c for u, c in zip(up, down)])
        D.append(D[k - 1] * (k + d - 3))
    return T[: m + 1], D[: m + 1]


def integer_ratios(values) -> tuple[list[int], int]:
    """(c, den): values[j] = c[j] / den exactly, for ints, floats or
    Fractions, den their least common denominator."""
    ratios = [Fraction(v).as_integer_ratio() for v in values]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def integer_polynomial(d: int, coeffs) -> tuple[list[int], Fraction]:
    """(q, scale): P = scale * sum_j q_j t^j with integers q_j and a
    positive rational scale, for P = sum_k coeffs[k] G_k^(d), each
    coefficient a float or a Fraction, taken exactly."""
    a, common = integer_ratios(coeffs)
    m = len(a) - 1
    T, D = gegenbauer_table(d, m)
    q = [0] * (m + 1)
    for a_k, T_k, D_k in zip(a, T, D):
        weight = a_k * (D[m] // D_k)
        for j, c in enumerate(T_k):
            q[j] += weight * c
    return q, Fraction(1, D[m] * common)


def _product(roots) -> tuple[list[int], int]:
    """(c, den): prod_i (t - roots[i]) = sum_j c_j t^j / den, den > 0."""
    c, den = [1], 1
    for p, q in (Fraction(r).as_integer_ratio() for r in roots):
        # times (q t - p)
        c = [q * a - p * b for a, b in zip([0, *c], [*c, 0])]
        den *= q
    return c, den


def _expansion(d: int, c: list[int], den: int) -> tuple[list[int], int]:
    """(A, M): sum_j c_j t^j / den = sum_k A_k G_k^(d) / M, in integers,
    by back-substitution from a_m down. With L_k = T_k[k], G_k's leading
    coefficient is L_k / D_k, and the coefficients start as c_j L_m. Each
    division by L_k is exact: L_k divides L_m, and T_{k+2j}[k] / L_k =
    (-1)^j C(k + 2j, 2j) (2j - 1)!! prod_{i < j} (2(k + i) + d - 2)."""
    m = len(c) - 1
    T, D = gegenbauer_table(d, m)
    rest, A = [x * T[m][m] for x in c], [0] * (m + 1)
    for k in range(m, -1, -1):
        q = rest[k] // T[k][k]
        A[k] = q * D[k]
        # G_k has the parity of k
        for j in range(k - 2, -1, -2):
            rest[j] -= q * T[k][j]
    return A, den * T[m][m]


def monomial_from_roots(roots) -> list[Fraction]:
    """The ascending monomial coefficients of prod_i (t - roots[i]), each
    root taken exactly (a float as its dyadic rational)."""
    c, den = _product(roots)
    return [Fraction(x, den) for x in c]


def gegenbauer_from_monomial(d: int, monomial) -> list[Fraction]:
    """a_0..a_m with sum_k a_k G_k^(d) = sum_j monomial[j] t^j, exactly,
    for ints, floats or Fractions, brought to their least common
    denominator."""
    A, M = _expansion(d, *integer_ratios(monomial))
    return [Fraction(a, M) for a in A]


def weighted_mean(d: int, monomial) -> Fraction:
    """sum_j c_j mu_j / mu_0 exactly (ints, floats or Fractions c_j), the
    mean of sum_j c_j t^j under the weight (1 - t^2)^((d - 3) / 2), whose
    moments vanish at odd j and have mu_2j / mu_2j-2 = (2j - 1) / (2j + d - 2):
    Horner's rule from the top, in integers over one denominator."""
    c, den = integer_ratios(monomial[::2])
    total, scale = 0, 1
    for j in range(len(c) - 1, -1, -1):
        # den sum_{i >= j} c_2i mu_2i / mu_2j, from the same sum past j
        scale *= 2 * j + d
        total = total * (2 * j + 1) + c[j] * scale
    return Fraction(total, scale * den)


def expand_rounded(d: int, monomial: list[float]) -> list[float]:
    """``gegenbauer_from_monomial`` of the floats ``monomial``, each a_k
    correctly rounded. A NaN or an infinity, and an a_k past the float
    range, raise ValueError."""
    if not all(map(isfinite, monomial)):
        raise ValueError("mono_coeffs must be finite")
    try:
        return [float(a) for a in gegenbauer_from_monomial(d, monomial)]
    except OverflowError:
        raise ValueError("coeffs must be finite") from None


def ratios_from_roots(d: int, roots) -> tuple[list[float], Fraction]:
    """(f, E) for prod_i (t - roots[i]) = sum_k a_k G_k^(d), a_0 > 0: each
    f_k = a_k / a_0 correctly rounded (int / int), so f_0 = 1.0, and
    E = sum_k |f_k - a_k / a_0| exactly. Every |G_k| <= 1 on [-1, 1], so
    sum_k f_k G_k lies within E of the exact ratios' polynomial there."""
    A, _ = _expansion(d, *_product(roots))
    f = [a / A[0] for a in A]
    num, den = integer_ratios(f)
    error = sum(abs(n * A[0] - a * den) for n, a in zip(num, A))
    return f, Fraction(error, A[0] * den)


def _bernstein(q: list[int], a: Fraction, b: Fraction) -> list[int]:
    """The scaled Bernstein coefficients C(n, k) b_k of Q on [a, b], times
    the positive 2^(r n) that makes them integers; [0] and [-1] are Q at
    a and at b times that factor."""
    n = len(q) - 1
    den = max(a.denominator, b.denominator)  # a power of 2
    A, H = int(a * den), int((b - a) * den)
    # R(x) = den^n Q(x / den), then the Taylor shift R(A + x)
    s = [c * den ** (n - j) for j, c in enumerate(q)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            s[j] += A * s[j + 1]
    s = [c * H**j for j, c in enumerate(s)]
    return [sum(comb(n - j, k - j) * s[j] for j in range(k + 1)) for k in range(n + 1)]


def prove_nonpositive(d, coeffs, lo, hi, splits=(), max_depth=40):
    """None when P = sum_k coeffs[k] G_k^(d) is exactly <= 0 on [lo, hi]
    (lo <= hi); else a ``Refuted`` point. Raises ``UndecidedError`` when a
    piece is still undecided after ``max_depth`` bisections."""
    lo, hi = Fraction(float(lo)), Fraction(float(hi))
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    q, scale = integer_polynomial(d, coeffs)
    cuts = {lo, hi}
    for x in splits:
        x = Fraction(round(float(x) * 2**SPLIT_BITS), 2**SPLIT_BITS)
        if lo < x < hi:
            cuts.add(x)
    cuts = sorted(cuts)
    # [lo, lo] is a piece of its own, every Bernstein coefficient P(lo)'s sign
    pieces = [(a, b, 0) for a, b in zip(cuts, cuts[1:])] or [(lo, hi, 0)]
    pieces.reverse()
    while pieces:
        a, b, depth = pieces.pop()
        beta = _bernstein(q, a, b)
        # the factor 2^(r n) of the ends, as the exact value P needs
        factor = max(a.denominator, b.denominator) ** (len(q) - 1)
        for t, end in ((a, beta[0]), (b, beta[-1])):
            if end > 0:
                return Refuted(t, Fraction(end, factor) * scale)
        if max(beta) <= 0:
            continue
        if depth == max_depth:
            raise UndecidedError(
                f"P on [{float(a)!r}, {float(b)!r}] is undecided after "
                f"{max_depth} bisections"
            )
        mid = (a + b) / 2
        pieces += [(mid, b, depth + 1), (a, mid, depth + 1)]
    return None


def unproven(cert) -> str | None:
    """Why the interval certificate (phi, c) is not proven, or None when
    P = phi + c is exactly <= 0 on [-1, cos_theta]: "refuted: P(t) = ...
    > 0 at t = ..." or "undecided: ...". The kernel splits where phi may
    peak (``phi._candidates``). A finite-set certificate, whose condition
    (ii) holds on a code's values, or a phi that is not Gegenbauer raises
    ValueError."""
    phi = cert.phi
    if cert.variant != "interval":
        raise ValueError(f"a {cert.variant} certificate is checked against its code")
    if phi.basis != "gegenbauer":
        raise ValueError(f"a {phi.basis} phi is not a Gegenbauer polynomial")
    coeffs = [Fraction(phi._terms[0]) + Fraction(cert.c), *phi._terms[1:]]
    try:
        found = prove_nonpositive(phi.dim, coeffs, -1.0, cert.cos_theta, phi._candidates)
    except UndecidedError as exc:
        return f"undecided: {exc}"
    if found is None:
        return None
    return f"refuted: P(t) = {float(found.value)!r} > 0 at t = {float(found.t)!r}"
