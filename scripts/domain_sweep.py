#!/usr/bin/env python3
"""Random sweep of lp_bound over the validated input domain.

Draws --n inputs (d, cos_theta, degree) with d uniform in 2..--max-dim,
cos_theta = round(U(-1, --max-cos), 4) and degree uniform in 1..40, runs
lp_bound on each and prints how many ended in each outcome (a
certificate, NoCertificateError by its cause, or a named error), the
simplex pivots of all its LP solves (``pivots:``, a work count that does
not depend on the machine's speed), how many of those solves went back
to the all-slack basis (``restarts:``), a sha256 digest of the outputs
(``outputs:``), how many ended at a Newton-polished polynomial and how
many came from Levenshtein's path, every input that ended in an
error, the certificates at a degree >= m(s) that are worse than
Levenshtein's bound L (above L (1 + 1e-6)), each with its bound and L,
and the slowest input. An "LP infeasible" result at a degree >= m(s) is
a class of its own: f_m is a certificate there, so the claim is false.

Every certificate is also proven <= 0 on [-1, cos_theta] in exact
arithmetic (``proven:``), by the standard-library kernel
``codebounds.exact`` split where the certificate's phi may peak (the
scan that its verification kept), as the test suite's session check
does; a refuted or undecided certificate is named on a line of its own.
Every input should end quickly in a proven certificate or a
NoCertificateError: the script exits 1 when any input ends in another
error or in a certificate that is not proven. Only the ``slowest:`` line
holds a time, so two runs of the same code print the same other lines.

The digest hashes, in input order, each certificate file's text
(``jsonutil.dumps`` of ``certificate_to_json_dict``) or the error's class
name and message. It compares two commits on one machine only: a
certificate's bytes depend on the BLAS kernel that computed it, so
another CPU can print another digest for the same code. To compare the
outputs of two source trees, run the script once with each on
PYTHONPATH.

The two pools that CI runs:

    domain_sweep.py --seed 2 --n 300 --max-dim 64 --max-cos 0.9
    domain_sweep.py --seed 3 --n 200 --max-dim 199 --max-cos 0.999
"""

import argparse
import hashlib
import time
from collections import Counter
from unittest.mock import patch

import numpy as np

from codebounds import dgs_bound, jsonutil
from codebounds.dgs_bound import lp_bound
from codebounds.errors import CodeBoundsError, NoCertificateError
from codebounds.exact import UndecidedError, prove_nonpositive
from codebounds.gegenbauer import MAX_TABLE_DEGREE
from codebounds.levenshtein import levenshtein, levenshtein_degree
from codebounds.linprog import solve_lp
from codebounds.pfender import certificate_to_json_dict

# a certificate at a degree >= m(s) above L by more than this is worse
# than Levenshtein
WORSE = 1e-6
# the paths a certificate can end on, by the start of their message
PATHS = {"polished": "Newton-polished", "levenshtein": "Levenshtein's"}


def sweep_inputs(seed: int, n: int, max_dim: int, max_cos: float):
    rng = np.random.default_rng(seed)
    return [
        (
            int(rng.integers(2, max_dim + 1)),
            round(float(rng.uniform(-1.0, max_cos)), 4),
            int(rng.integers(1, MAX_TABLE_DEGREE + 1)),
        )
        for _ in range(n)
    ]


def outcome(case):
    """The input's outcome, its certificate (None without one), and its
    output: the certificate file's text, or the error's class name and
    message."""
    try:
        cert = lp_bound(*case)
    except CodeBoundsError as exc:
        output = f"{type(exc).__name__}: {exc}\n"
        if not isinstance(exc, NoCertificateError):
            return type(exc).__name__, None, output
        if not str(exc).endswith("is infeasible"):
            return "NoCertificateError (cannot be absorbed)", None, output
        if levenshtein_degree(*case) is not None:
            return "NoCertificateError (LP infeasible at m(s) <= degree)", None, output
        return "NoCertificateError (LP infeasible)", None, output
    return "certificate", cert, jsonutil.dumps(certificate_to_json_dict(cert))


def unproven(cert):
    """Why the certificate is not proven <= 0 on [-1, cos_theta] in exact
    arithmetic, or None when it is: the kernel, split at the points where
    its phi may peak."""
    poly = cert.poly
    try:
        found = prove_nonpositive(
            poly.dim, poly.coeffs.tolist(), -1.0, cert.cos_theta, cert.phi._candidates
        )
    except UndecidedError as exc:
        return f"undecided: {exc}"
    if found is None:
        return None
    return f"refuted: P(t) = {float(found.value)!r} > 0 at t = {float(found.t)!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--max-dim", type=int, default=64)
    parser.add_argument("--max-cos", type=float, default=0.9)
    args = parser.parse_args()
    if args.max_dim < 2 or not -1.0 < args.max_cos < 1.0:
        parser.error("--max-dim must be >= 2 and --max-cos in (-1, 1)")

    counts, paths = Counter(), Counter()
    outputs = hashlib.sha256()
    above_m, worse, proven = 0, [], 0
    slowest = (-1.0, None, None)
    work = Counter()

    def counted(lp, basis=None):
        solution = solve_lp(lp, basis)
        work["pivots"] += solution.iterations
        work["restarts"] += solution.restarts
        work["solves"] += 1
        return solution

    for case in sweep_inputs(args.seed, args.n, args.max_dim, args.max_cos):
        start = time.perf_counter()
        with patch.object(dgs_bound, "solve_lp", counted):
            result, cert, output = outcome(case)
        elapsed = time.perf_counter() - start
        counts[result] += 1
        outputs.update(output.encode())
        if result not in ("certificate", "NoCertificateError (LP infeasible)"):
            print(f"{case}: {result}")
        slowest = max(slowest, (elapsed, case, result))
        if cert is None:
            continue
        why = unproven(cert)
        proven += why is None
        if why is not None:
            print(f"{case}: certificate {why}")
        messages = cert.verification.messages
        for path, prefix in PATHS.items():
            paths[path] += any(m.startswith(prefix) for m in messages)
        d, cos_theta, degree = case
        if levenshtein_degree(d, cos_theta, degree) is not None:
            above_m += 1
            bound = levenshtein(d, cos_theta)[1]
            if cert.bound_real > bound * (1.0 + WORSE):
                worse.append(
                    f"{case}: {cert.bound_real!r} against L {bound!r} "
                    f"(x {cert.bound_real / bound:.9g})"
                )
    for result, count in sorted(counts.items()):
        print(f"{count:>5}  {result}")
    print(f"pivots: {work['pivots']} in {work['solves']} LP solves")
    print(f"restarts: {work['restarts']}")
    print(f"outputs: {outputs.hexdigest()}")
    for path in PATHS:
        print(f"{path}: {paths[path]} of {counts['certificate']} certificates")
    print(f"proven: {proven} of {counts['certificate']} certificates")
    print(f"worse than Levenshtein: {len(worse)} of {above_m} certificates "
          f"at a degree >= m(s)")
    for line in worse:
        print(line)
    elapsed, case, result = slowest
    print(f"slowest: {case} took {elapsed:.2f} s ({result})")
    ended = ("certificate", "NoCertificateError")
    all_ended = all(result.startswith(ended) for result in counts)
    return 0 if all_ended and proven == counts["certificate"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
