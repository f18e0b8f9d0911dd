#!/usr/bin/env python3
"""Random sweep of lp_bound over the validated input domain.

Draws --n inputs (d, cos_theta, degree) with d uniform in 2..--max-dim,
cos_theta = round(U(-1, --max-cos), 4) and degree uniform in 1..40, runs
lp_bound on each and prints how many ended in each outcome (a
certificate, NoCertificateError by its cause, or a named error), every
input that ended in an error, and the slowest input. Every input should
end quickly in a certificate or a NoCertificateError: the script exits 1
when any input ends in another error. Only the ``slowest:`` line holds a
time, so two runs of the same code print the same other lines.

The two pools that CI runs:

    domain_sweep.py --seed 2 --n 300 --max-dim 64 --max-cos 0.9
    domain_sweep.py --seed 3 --n 200 --max-dim 199 --max-cos 0.999
"""

import argparse
import time
from collections import Counter

import numpy as np

from codebounds.dgs_bound import lp_bound
from codebounds.errors import CodeBoundsError, NoCertificateError
from codebounds.gegenbauer import MAX_TABLE_DEGREE


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


def outcome(case) -> str:
    try:
        lp_bound(*case)
    except NoCertificateError as exc:
        if str(exc).endswith("is infeasible"):
            return "NoCertificateError (LP infeasible)"
        return "NoCertificateError (cannot be absorbed)"
    except CodeBoundsError as exc:
        return type(exc).__name__
    return "certificate"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--max-dim", type=int, default=64)
    parser.add_argument("--max-cos", type=float, default=0.9)
    args = parser.parse_args()
    if args.max_dim < 2 or not -1.0 < args.max_cos < 1.0:
        parser.error("--max-dim must be >= 2 and --max-cos in (-1, 1)")

    counts = Counter()
    slowest = (-1.0, None, None)
    for case in sweep_inputs(args.seed, args.n, args.max_dim, args.max_cos):
        start = time.perf_counter()
        result = outcome(case)
        elapsed = time.perf_counter() - start
        counts[result] += 1
        if result not in ("certificate", "NoCertificateError (LP infeasible)"):
            print(f"{case}: {result}")
        slowest = max(slowest, (elapsed, case, result))
    for result, count in sorted(counts.items()):
        print(f"{count:>5}  {result}")
    elapsed, case, result = slowest
    print(f"slowest: {case} took {elapsed:.2f} s ({result})")
    ended = ("certificate", "NoCertificateError")
    return 0 if all(result.startswith(ended) for result in counts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
