#!/usr/bin/env python3
"""Compute LP kissing-number bounds (cos theta = 1/2) for chosen dimensions.

Writes one verified certificate JSON per dimension and prints a summary
table. The classical anchors: d=3 -> 13.15 (true 12), d=4 -> 25.55
(true 24), d=8 -> 240 (tight), d=24 -> 196560 (tight).
"""

import argparse
import os
import time

from codebounds import jsonutil
from codebounds.dgs_bound import certificate_to_json_dict, lp_bound
from codebounds.errors import NoCertificateError

DEFAULT_DEGREES = {3: 10, 4: 10, 8: 6, 24: 10}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="3,4,8,24", help="comma-separated dimensions")
    parser.add_argument("--degree", type=int, default=None,
                        help="LP degree (default: per-dimension classic choice)")
    parser.add_argument("--out-dir", default="certificates")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    dims = [int(v) for v in args.dims.split(",")]
    print(f"{'dim':>4} {'degree':>6} {'bound_real':>18} {'bound_int':>10} "
          f"{'verified':>8} {'seconds':>8}")
    for d in dims:
        degree = args.degree or DEFAULT_DEGREES.get(d, 10)
        t0 = time.time()
        try:
            cert = lp_bound(d, 0.5, degree)
        except NoCertificateError as exc:
            print(f"{d:>4} {degree:>6} {'no certificate':>18}  ({exc})")
            continue
        elapsed = time.time() - t0
        path = os.path.join(args.out_dir, f"kissing_d{d}_m{degree}.json")
        jsonutil.dump_path(path, certificate_to_json_dict(cert))
        verified = "yes" if cert.verification.passed else "no"
        print(f"{d:>4} {degree:>6} {cert.bound_real:>18.6f} {cert.bound_int:>10} "
              f"{verified:>8} {elapsed:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
