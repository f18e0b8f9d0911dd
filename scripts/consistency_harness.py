#!/usr/bin/env python3
"""Randomized theorem-consistency sweep: codes x certificates.

Builds the fixed catalog codes, as l_2 functional codes and embedded as
metric codes, plus --n-random random l_p functional codes, applies a catalog of Pfender certificates to every one of them,
and reports how many pairs were applicable, the worst n - bound margin
and the throughput in pairs per second. Any genuine violation raises
TheoremViolationError and exits nonzero; with a correct implementation
the sweep always ends clean.
"""

import argparse
import time

import numpy as np

from codebounds import codes
from codebounds.dgs_bound import lp_bound, pfender_form
from codebounds.errors import TheoremViolationError
from codebounds.pfender import PhiSpec, functional_pfender_check

DEFAULT_SEED = 20240803


def closed_form_catalog():
    """The (name, phi, c, variant) certificates given by a formula."""
    catalog = []
    for d in range(2, 11):
        catalog.append((f"g1_d{d}", PhiSpec("gegenbauer", [0.0, 1.0], dim=d),
                        1.0 / d, "interval"))
    for d in range(2, 17):
        catalog.append((f"sq_d{d}", PhiSpec("monomial", [-1.0 / d, 0.0, 1.0]),
                        1.0 / d, "finite_set"))
    return catalog


def lp_catalog():
    """The certificates (P - a_0, a_0) of three Delsarte polynomials."""
    catalog = []
    for d, degree in ((3, 10), (4, 10), (8, 6)):
        phi, c = pfender_form(lp_bound(d, 0.5, degree).poly)
        catalog.append((f"lp_d{d}_m{degree}", phi, c, "interval"))
    return catalog


def certificate_catalog():
    return closed_form_catalog() + lp_catalog()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--n-random", type=int, default=500)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pool = []
    for family, dim in (
        ("simplex", 3), ("simplex", 5), ("simplex", 8),
        ("orthonormal", 4), ("orthonormal", 9), ("orthonormal", 16),
        ("cross_polytope", 3), ("cross_polytope", 8),
        ("icosahedron", None), ("d4_roots", None), ("e8_roots", None),
    ):
        spherical = codes.generate(family, dim=dim)
        pool.append((family, codes.euclidean_to_functional(spherical)))
        pool.append((f"{family}_metric", codes.embed_as_metric_code(spherical)))
    for i in range(args.n_random):
        p = (1.5, 2.0, 3.0)[i % 3]
        code = codes.random_functional_code(
            rng, p, int(rng.integers(2, 7)), int(rng.integers(2, 9))
        )
        pool.append((f"random_lp{p}", code))

    catalog = certificate_catalog()
    t0 = time.perf_counter()
    checked = applicable = 0
    worst_margin = float("-inf")
    worst_pair = None
    try:
        for code_name, code in pool:
            for cert_name, phi, c, variant in catalog:
                checked += 1
                result = functional_pfender_check(code, phi, c, variant=variant)
                if result.applicable:
                    applicable += 1
                    margin = result.n - result.certificate.bound_real
                    if margin > worst_margin:
                        worst_margin, worst_pair = margin, (code_name, cert_name)
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}")
        return 1
    elapsed = time.perf_counter() - t0
    print(f"checked {checked} pairs over {len(pool)} codes x {len(catalog)} "
          f"certificates in {elapsed:.1f}s ({checked / elapsed:.0f} pairs/s)")
    print(f"applicable: {applicable}; worst n - bound = {worst_margin:.3e} "
          f"at {worst_pair}")
    print("zero violations" if worst_margin <= 1e-9 else "MARGIN ABOVE TOLERANCE")
    return 0 if worst_margin <= 1e-9 else 1


if __name__ == "__main__":
    raise SystemExit(main())
