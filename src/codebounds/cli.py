"""Command-line interface: code generation, verification, and bounds.

Subcommands:
  gegenbauer eval|expand      evaluate G_k or expand a monomial polynomial
  bound lp|pfender            compute/verify bound certificates, write JSON
  code gen|verify|check-theorem
                              generate catalog codes, verify axioms, check a
                              certificate (bound lp's or bound pfender's)
                              against a concrete code

Both bound commands write one file format, a Pfender certificate with its
verification report: bound lp's Delsarte polynomial P is the certificate
(P - a_0, a_0). check-theorem also reads the "dgs" files of older versions.

Exit codes: 0 success/verified, 1 unverified certificate or invalid code
or inapplicable certificate (or, for check-theorem, a stored bound that
the certificate does not give), 2 usage or structural error. All commands
are deterministic; rerunning writes byte-identical files.

Each command imports the modules it runs when it runs, so a cold start
of ``bound lp``, say, never loads the codes. Arguments are checked, and
``gegenbauer eval``'s value is computed, by ``_scalar`` in plain Python;
``gegenbauer expand``'s coefficients come from ``exact``, in integers,
and ``code gen`` builds and writes its code with ``_catalog``, also
plain Python. So ``gegenbauer eval``, ``gegenbauer expand``, ``code
gen`` and any ``bound lp`` argument error load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import _scalar, jsonutil
from .errors import CodeBoundsError, NoCertificateError, TheoremViolationError
from .jsonutil import format_float


def _cos_theta_from_args(args) -> float:
    if args.theta_degrees is not None:
        return math.cos(math.radians(args.theta_degrees))
    return args.cos_theta


def cmd_gegenbauer(args) -> int:
    if args.action == "eval":
        # gegenbauer_eval's checks, in its order, and its bits at one point
        degree = _scalar._check_nonnegative_degree(args.degree)
        dim = _scalar._check_dim(args.dim)
        at = _scalar._check_point(args.at)
        print(format_float(_scalar._point_values(dim, degree, at)[degree]))
        return 0
    mono = [float(v) for v in args.expand.split(",")]
    dim = _scalar._check_table(args.dim, len(mono) - 1)[0]
    from . import exact

    for k, a in enumerate(exact.expand_rounded(dim, mono)):
        print(f"a_{k} = {format_float(a)}")
    return 0


def cmd_bound(args) -> int:
    cos_theta = _cos_theta_from_args(args)
    if args.kind == "lp":
        # a bad argument exits before numpy is imported
        _scalar._validate_inputs(args.dim, cos_theta, args.degree)
        from . import dgs_bound

        try:
            cert = dgs_bound.lp_bound(args.dim, cos_theta, args.degree)
        except NoCertificateError as exc:
            print(f"no certificate: {exc}", file=sys.stderr)
            return 1
        # lp_bound raises rather than return a certificate that fails verification
        verified = True
    else:
        if args.finite_set and not args.code:
            raise ValueError("--finite-set needs --code: the finite evaluation set "
                             "comes from a concrete code")
        from . import pfender

        phi = pfender.phi_from_json_dict(jsonutil.load_path(args.phi))
        variant = "finite_set" if args.finite_set else "interval"
        if args.code:
            from . import codes

            code = codes.code_from_json_dict(jsonutil.load_path(args.code))
            result = pfender.functional_pfender_check(
                code, phi, args.c, variant=variant, cos_theta=cos_theta
            )
            cert = result.certificate
            verified = result.applicable
            if not verified:
                print(result.reason, file=sys.stderr)
        else:
            cert = pfender.pfender_bound(phi, args.c, cos_theta)
            verified = cert.verification.passed
            if not verified:
                print(
                    f"unverified: {cert.verification.condition_i_evidence}; "
                    + "; ".join(cert.verification.messages),
                    file=sys.stderr,
                )
    if args.out:
        from . import pfender

        jsonutil.dump_path(args.out, pfender.certificate_to_json_dict(cert))
    print(
        f"bound_real={format_float(cert.bound_real)} bound_int={cert.bound_int} "
        f"verified={'yes' if verified else 'no'}"
    )
    return 0 if verified else 1


def cmd_code(args) -> int:
    if args.action == "gen":
        # codes.generate and code_to_json_dict wrap these lists in arrays
        from . import _catalog

        dim, vectors, cos_theta = _catalog.generate(args.family, args.dim)
        data = _catalog.spherical_json_dict(dim, vectors, cos_theta)
        jsonutil.dump_path(args.out, data)
        print(f"wrote {args.out}: spherical code, n={len(vectors)}, dim={dim}")
        return 0
    from . import codes

    if args.action == "verify":
        code = codes.code_from_json_dict(jsonutil.load_path(args.file))
        report = codes.verify(code, cos_theta=args.cos_theta)
        offdiag = "" if report.max_offdiag is None else format_float(report.max_offdiag)
        print(f"valid={'yes' if report.valid else 'no'} max_offdiag={offdiag}")
        for failure in report.axiom_failures:
            print(f"failure: {failure}")
        for warning in report.warnings:
            print(f"warning: {warning}")
        return 0 if report.valid else 1

    # check-theorem
    from . import pfender

    code = codes.code_from_json_dict(jsonutil.load_path(args.file))
    cert = pfender.certificate_from_json_dict(jsonutil.load_path(args.cert))
    result = pfender.functional_pfender_check(
        code, cert.phi, cert.c, variant=cert.variant, cos_theta=cert.cos_theta
    )
    if not result.applicable:
        print(result.reason, file=sys.stderr)
        return 1
    checked = result.certificate
    mismatches = pfender.stored_bound_mismatches(
        cert, checked.bound_real, checked.bound_int
    )
    for name, message in mismatches.items():
        print(f"stored {name} rejected: {message}", file=sys.stderr)
    if mismatches:
        return 1
    print(
        f"n={result.n} bound={format_float(checked.bound_real)} "
        f"slack={format_float(result.slack)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebounds",
        description="Upper bounds for spherical, functional, and metric codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    geg = sub.add_parser("gegenbauer", help="evaluate or expand in the G_k basis")
    geg_sub = geg.add_subparsers(dest="action", required=True)
    geg_eval = geg_sub.add_parser("eval")
    geg_eval.add_argument("--dim", type=int, required=True)
    geg_eval.add_argument("--degree", type=int, required=True)
    geg_eval.add_argument("--at", type=float, required=True)
    geg_exp = geg_sub.add_parser("expand")
    geg_exp.add_argument("--dim", type=int, required=True)
    geg_exp.add_argument(
        "--expand", required=True, metavar="B0,B1,...",
        help="ascending monomial coefficients",
    )

    bound = sub.add_parser("bound", help="compute and verify bound certificates")
    bound_sub = bound.add_subparsers(dest="kind", required=True)
    blp = bound_sub.add_parser("lp")
    bpf = bound_sub.add_parser("pfender")
    for bound_parser in (blp, bpf):
        angle = bound_parser.add_mutually_exclusive_group(required=True)
        angle.add_argument("--cos-theta", type=float)
        angle.add_argument("--theta-degrees", type=float)
    blp.add_argument("--dim", type=int, required=True)
    blp.add_argument("--degree", type=int, required=True)
    blp.add_argument("--out")
    bpf.add_argument("--phi", required=True, help="phi JSON file")
    bpf.add_argument("--c", type=float, required=True)
    bpf.add_argument("--finite-set", action="store_true")
    bpf.add_argument("--code", help="code JSON file for a per-code check")
    bpf.add_argument("--out")

    code = sub.add_parser("code", help="generate and verify codes")
    code_sub = code.add_subparsers(dest="action", required=True)
    cgen = code_sub.add_parser("gen")
    cgen.add_argument("--family", required=True)
    cgen.add_argument("--dim", type=int)
    cgen.add_argument("--out", required=True)
    cver = code_sub.add_parser("verify")
    cver.add_argument("--file", required=True)
    cver.add_argument("--cos-theta", type=float)
    cthm = code_sub.add_parser("check-theorem")
    cthm.add_argument("--file", required=True, help="code JSON file")
    cthm.add_argument(
        "--cert", required=True,
        help="certificate JSON file, from bound lp or bound pfender",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gegenbauer":
            return cmd_gegenbauer(args)
        if args.command == "bound":
            return cmd_bound(args)
        return cmd_code(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 2
    except KeyError as exc:
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError, CodeBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
