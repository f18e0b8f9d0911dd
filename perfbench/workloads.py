"""The benchmark's four workloads and the correctness gate on every op.

A workload is built from a seed (that build and ``warm_up`` are set-up),
computes the expected outputs of its gates in ``prepare_checks`` (after
set-up is timed), hands out one *round* of ops in a seeded order, and
runs one op at a time. ``run`` returns ``(status, outcome)``: status "ok",
"wrong" (a correctness gate failed) or "error" (a named error where none
is allowed); the caller adds "timeout" when the op's deadline passes, and
``may_time_out`` says for which ops that is expected. Library functions
are always looked up through their module at call time, so the tracer's
rebinding sees every call.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

from codebounds import codes, dgs_bound, gegenbauer, jsonutil, pfender
from codebounds.errors import (
    CodeBoundsError,
    NoCertificateError,
    TheoremViolationError,
)

HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes of existing codes; a bound below one of them is wrong. Kissing
# configurations: 12, 24, 240 (E8), 196560 (Leech), 4320 (Barnes-Wall 16);
# the D_n root systems give 2n(n-1) points with coherence 1/2.
KNOWN_CODE_SIZE = {
    (3, 0.5): 12,
    (4, 0.5): 24,
    (8, 0.5): 240,
    (24, 0.5): 196560,
    (16, 0.7): 4320,
    (24, 0.7): 196560,
    (32, 0.5): 2 * 32 * 31,
    (48, 0.5): 2 * 48 * 47,
}

# Acceptance windows of the Odlyzko-Sloane anchors (tests/test_acceptance.py).
ANCHOR_WINDOWS = {
    (3, 0.5, 10): (13.158330866785821 - 5e-3, 13.158330866785821 + 5e-3, 13),
    (4, 0.5, 10): (25.558461854288428 - 5e-3, 25.558461854288428 + 5e-3, 25),
    (8, 0.5, 6): (240.0 - 1e-6, 240.001, 240),
    (24, 0.5, 10): (196560.0, 196561.0, 196560),
}

CERT, NO_CERT = "certificate", "no_certificate"

# case -> outcomes that count as correct
KISSING_CASES = {
    (3, 0.5, 10): (CERT,),
    (4, 0.5, 10): (CERT,),
    (8, 0.5, 6): (CERT,),
    (24, 0.5, 10): (CERT,),
    (24, 0.5, 20): (CERT,),
    (32, 0.5, 20): (CERT,),
    (16, 0.7, 16): (CERT,),
}
# (24, .7, 30) and (48, .5, 30) stall the dense-tableau fallback: they may
# time out (a failed op, but not an incorrect run), and a verified
# certificate or NoCertificateError is a correct way to end. (32, .5, 30)
# finishes in about 2 s; (24, .7, 12) is LP-infeasible at its degree.
KNOWN_HANGS = {(24, 0.7, 30), (48, 0.5, 30)}
STRESS_CASES = {
    (24, 0.7, 30): (CERT, NO_CERT),
    (48, 0.5, 30): (CERT, NO_CERT),
    (32, 0.5, 30): (CERT,),
    (24, 0.7, 12): (NO_CERT,),
}
TINY_KISSING = {case: KISSING_CASES[case] for case in ((3, 0.5, 10), (8, 0.5, 6))}
TINY_STRESS = {case: STRESS_CASES[case] for case in ((24, 0.7, 30), (24, 0.7, 12))}

# Catalog codes as in scripts/consistency_harness.py, copied so that the
# workload stays fixed when the script changes.
CATALOG_CODES = (
    ("simplex", 3), ("simplex", 5), ("simplex", 8),
    ("orthonormal", 4), ("orthonormal", 9), ("orthonormal", 16),
    ("cross_polytope", 3), ("cross_polytope", 8),
    ("icosahedron", None), ("d4_roots", None), ("e8_roots", None),
)
COND_TOL = 1e-9


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class LPWorkload:
    """Each op: lp_bound, JSON write, reload, verify_certificate on the reload."""

    def __init__(self, cases, deadline_s, round_s, seed, workdir):
        self.cases = cases
        self.deadline_s = deadline_s
        self.round_s = round_s
        self.workdir = workdir
        self._rng = np.random.default_rng(seed)
        self._bytes = {}  # case -> certificate file bytes of its first run

    def round(self):
        keys = list(self.cases)
        return [keys[i] for i in self._rng.permutation(len(keys))]

    def op_name(self, case):
        return ",".join(str(v) for v in case)

    def may_time_out(self, case):
        return case in KNOWN_HANGS

    def warm_up(self):
        self._bound((3, 0.5, 6))

    def prepare_checks(self):
        """The windows are fixed; the reference file bytes of a case are
        those of its first run."""

    def _bound(self, case):
        d, cos_theta, degree = case
        try:
            cert = dgs_bound.lp_bound(d, cos_theta, degree)
        except NoCertificateError:
            return None
        path = os.path.join(self.workdir, f"lp_{d}_{cos_theta}_{degree}.json")
        jsonutil.dump_path(path, dgs_bound.certificate_to_json_dict(cert))
        reloaded = dgs_bound.certificate_from_json_dict(jsonutil.load_path(path))
        return reloaded, dgs_bound.verify_certificate(reloaded), path

    def run(self, case):
        try:
            result = self._bound(case)
        except CodeBoundsError as exc:
            return "error", type(exc).__name__
        if result is None:
            return ("ok" if NO_CERT in self.cases[case] else "wrong"), NO_CERT
        cert, report, path = result
        if CERT not in self.cases[case]:
            return "wrong", CERT
        return ("ok" if self._gate(case, cert, report, path) else "wrong"), CERT

    def _gate(self, case, cert, report, path):
        d, cos_theta, _ = case
        if not report.passed:
            return False
        if cert.bound_int != math.floor(cert.bound_real + 1e-9):
            return False
        if cert.bound_real < KNOWN_CODE_SIZE.get((d, cos_theta), 1):
            return False
        window = ANCHOR_WINDOWS.get(case)
        if window is not None:
            lo, hi, bound_int = window
            if not (lo <= cert.bound_real <= hi and cert.bound_int == bound_int):
                return False
        with open(path, "rb") as fh:
            data = fh.read()
        return self._bytes.setdefault(case, data) == data


def certificate_catalog():
    """(name, phi, c, variant), as in scripts/consistency_harness.py."""
    catalog = []
    for d in range(2, 11):
        catalog.append((f"g1_d{d}", pfender.PhiSpec("gegenbauer", [0.0, 1.0], dim=d),
                        1.0 / d, "interval"))
    for d in range(2, 17):
        catalog.append((f"sq_d{d}", pfender.PhiSpec("monomial", [-1.0 / d, 0.0, 1.0]),
                        1.0 / d, "finite_set"))
    for d, degree in ((3, 10), (4, 10), (8, 6)):
        cert = dgs_bound.lp_bound(d, 0.5, degree)
        coeffs = cert.poly.coeffs.copy()
        coeffs[0] = 0.0
        catalog.append((f"lp_d{d}_m{degree}",
                        pfender.PhiSpec("gegenbauer", coeffs, dim=d), 1.0, "interval"))
    return catalog


def _phi_reference(phi, r):
    """phi at r by its definition, without pfender's evaluator."""
    if phi.basis == "monomial":
        return sum(b * r**k for k, b in enumerate(phi.coeffs))
    if phi.basis != "gegenbauer":
        raise ValueError(f"no reference evaluator for basis {phi.basis!r}")
    d = phi.dim
    prev, cur = np.ones_like(r), r
    total = phi.coeffs[0] * prev
    if len(phi.coeffs) > 1:
        total = total + phi.coeffs[1] * cur
    for k in range(2, len(phi.coeffs)):
        prev, cur = cur, ((2 * k + d - 4) * r * cur - (k - 1) * prev) / (k + d - 3)
        total = total + phi.coeffs[k] * cur
    return total


def expected_applicable(M, cos_theta, phi, c, variant):
    """Both Pfender conditions, checked from their statement.

    (i) the double sum of phi over the evaluation matrix is >= 0, and
    (ii) phi + c <= 0 on [-1, cos_theta] (on a 4097-point grid that ends
    at cos_theta) or on the observed off-diagonal values.
    """
    n = len(M)
    clipped = np.clip(M, -1.0, 1.0)
    if float(np.sum(_phi_reference(phi, clipped.ravel()))) < -COND_TOL * n * n:
        return False
    if variant == "interval":
        grid = np.linspace(-1.0, cos_theta, 4097)
        return float(np.max(_phi_reference(phi, grid))) + c <= COND_TOL
    if n < 2:
        return True
    off = clipped[~np.eye(n, dtype=bool)]
    return float(np.max(_phi_reference(phi, off))) + c <= COND_TOL


class ConsistencySweep:
    """Each op: one functional_pfender_check of a (code, certificate) pair.

    Codes: the catalog as l_2 codes, seeded random l_p codes (p in 1.5, 2,
    3), the catalog without E8 embedded as metric codes, each against every
    certificate; and E8 embedded as a metric code against one seeded
    certificate per round, so its Lipschitz checks show without dominating.
    Every op's applicability must match ``expected_applicable``, so each
    round's applicable count matches the count fixed for the seed.
    """

    deadline_s = 30.0
    round_s = 7.5

    def __init__(self, seed, tiny):
        rng = np.random.default_rng(seed)
        self.catalog = certificate_catalog()
        spherical = [codes.generate(f, dim=d) for f, d in CATALOG_CODES]
        pool = [codes.euclidean_to_functional(code) for code in spherical]
        for i in range(6 if tiny else 60):
            p = (1.5, 2.0, 3.0)[i % 3]
            pool.append(codes.random_functional_code(
                rng, p, int(rng.integers(2, 7)), int(rng.integers(2, 9))))
        metric_sources = spherical[:2] if tiny else spherical[:-1]
        pool += [codes.embed_as_metric_code(code) for code in metric_sources]
        pairs = [(i, k) for i in range(len(pool)) for k in range(len(self.catalog))]
        if not tiny:
            pool.append(codes.embed_as_metric_code(spherical[-1]))
            pairs.append((len(pool) - 1, int(rng.integers(len(self.catalog)))))
        self.pool = pool
        self.pairs = pairs
        self._rng = rng

    def prepare_checks(self):
        matrices = [codes.evaluation_matrix(code) for code in self.pool]
        self.expected = [
            expected_applicable(matrices[i], float(self.pool[i].cos_theta),
                                *self.catalog[k][1:])
            for i, k in self.pairs
        ]
        self.expected_count = sum(self.expected)

    def round(self):
        return [int(i) for i in self._rng.permutation(len(self.pairs))]

    def op_name(self, index):
        return self.catalog[self.pairs[index][1]][0]

    def may_time_out(self, index):
        return False

    def warm_up(self):
        for code_index, cert_index in self.pairs[:27]:
            _, phi, c, variant = self.catalog[cert_index]
            pfender.functional_pfender_check(self.pool[code_index], phi, c,
                                             variant=variant)

    def run(self, index):
        code_index, cert_index = self.pairs[index]
        code = self.pool[code_index]
        _, phi, c, variant = self.catalog[cert_index]
        try:
            result = pfender.functional_pfender_check(code, phi, c, variant=variant)
        except TheoremViolationError:
            return "wrong", "TheoremViolationError"
        outcome = "applicable" if result.applicable else "not_applicable"
        if result.applicable != self.expected[index]:
            return "wrong", outcome
        if result.applicable and result.n > result.certificate.bound_real + COND_TOL:
            return "wrong", outcome
        return "ok", outcome


class CliCold:
    """Each op: a fresh ``python -m codebounds`` process running one command.

    The mix follows the README: gegenbauer eval/expand, code
    gen/verify/check-theorem, bound pfender, bound lp at d=3, plus one
    command that must exit 1 and one that must exit 2. Files a command
    writes must equal, byte for byte, what the library writes in-process.
    """

    deadline_s = 60.0
    round_s = 8.0

    def __init__(self, seed, tiny, workdir, env):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = env
        self.spans_path = None  # set by the traced phase
        self.child_spans = []  # (import_s, spans) per traced child
        self.peak_rss_kb = 0
        def w(name):
            return os.path.join(workdir, name)

        def dump(name, obj):
            jsonutil.dump_path(w(name), obj)
            return w(name)

        e8 = dump("e8.json", codes.code_to_json_dict(codes.generate("e8_roots")))
        d4 = dump("d4.json", codes.code_to_json_dict(codes.generate("d4_roots")))
        d_ortho = int(rng.integers(3, 9))
        ortho_code = codes.generate("orthonormal", dim=d_ortho)
        ortho = dump("ortho.json", codes.code_to_json_dict(ortho_code))
        c_sq = 1.0 / d_ortho
        sq = pfender.PhiSpec("monomial", [-c_sq, 0.0, 1.0])
        fs = pfender.functional_pfender_check(
            ortho_code, sq, c_sq, variant="finite_set", cos_theta=0.0)
        cert_fs = dump("cert_fs.json", pfender.certificate_to_json_dict(fs.certificate))

        # key -> (args, exit code, expected stdout, output file): the
        # expected stdout is ("exact" | "prefix", text or a function giving
        # it), the output file None or (path, function giving its JSON)
        commands = {}
        dim, degree = int(rng.integers(2, 25)), int(rng.integers(0, 21))
        at = _fmt(rng.uniform(-1.0, 1.0))
        commands["eval"] = (
            ["gegenbauer", "eval", "--dim", str(dim), "--degree", str(degree),
             "--at", at],
            0, ("exact", lambda d=dim, k=degree, r=float(at):
                _fmt(gegenbauer.gegenbauer_eval(d, k, r)) + "\n"),
            None)

        dim = int(rng.integers(2, 17))
        mono = [_fmt(v) for v in rng.uniform(-2.0, 2.0, size=4)]

        def expanded(d=dim, values=tuple(float(v) for v in mono)):
            poly = gegenbauer.expand_in_basis(list(values), d)
            return "".join(f"a_{k} = {_fmt(a)}\n" for k, a in enumerate(poly.coeffs))

        commands["expand"] = (
            ["gegenbauer", "expand", "--dim", str(dim), "--expand=" + ",".join(mono)],
            0, ("exact", expanded), None)

        family, fdim = CATALOG_CODES[int(rng.integers(len(CATALOG_CODES)))]
        gen_args = ["code", "gen", "--family", family, "--out", w("gen.json")]
        if fdim is not None:
            gen_args[4:4] = ["--dim", str(fdim)]
        commands["gen"] = (gen_args, 0, ("prefix", "wrote "), (
            w("gen.json"),
            lambda: codes.code_to_json_dict(codes.generate(family, dim=fdim))))

        commands["verify"] = (["code", "verify", "--file", e8, "--cos-theta", "0.5"],
                              0, ("prefix", "valid=yes"), None)
        commands["verify_invalid"] = (
            ["code", "verify", "--file", d4, "--cos-theta", "0.25"],
            1, ("prefix", "valid=no"), None)
        commands["check_theorem"] = (
            ["code", "check-theorem", "--file", ortho, "--cert", cert_fs],
            0, ("prefix", "n="), None)

        d_g1 = int(rng.integers(2, 11))
        c, ct = _fmt(1.0 / d_g1), _fmt(-1.0 / d_g1)
        g1 = pfender.PhiSpec("gegenbauer", [0.0, 1.0], dim=d_g1)
        phi_path = dump("g1.json", pfender.phi_to_json_dict(g1))
        commands["pfender"] = (
            ["bound", "pfender", "--phi", phi_path, "--c", c, "--cos-theta", ct,
             "--out", w("pfender.json")],
            0, ("prefix", "bound_real="),
            (w("pfender.json"), lambda: pfender.certificate_to_json_dict(
                pfender.pfender_bound(g1, float(c), float(ct)))))

        lp_degree = int(rng.choice([6, 8, 10]))
        commands["lp"] = (
            ["bound", "lp", "--dim", "3", "--cos-theta", "0.5", "--degree",
             str(lp_degree), "--out", w("lp.json")],
            0, ("prefix", "bound_real="),
            (w("lp.json"), lambda: dgs_bound.certificate_to_json_dict(
                dgs_bound.lp_bound(3, 0.5, lp_degree))))
        commands["lp_invalid"] = (
            ["bound", "lp", "--dim", "3", "--cos-theta", "0.5", "--degree", "41"],
            2, ("exact", ""), None)

        if tiny:
            commands = {k: commands[k] for k in ("eval", "gen", "lp_invalid")}
        self.commands = commands
        self.expected = {}
        self._rng = rng

    def prepare_checks(self):
        """What each command must print and write, from the library in-process."""
        for key, (_, code, (mode, text), ref) in self.commands.items():
            if callable(text):
                text = text()
            if ref is not None:
                ref = (ref[0], jsonutil.dumps(ref[1]()).encode())
            self.expected[key] = (code, (mode, text), ref)

    def round(self):
        keys = list(self.commands)
        return [keys[i] for i in self._rng.permutation(len(keys))]

    def op_name(self, key):
        return key

    def may_time_out(self, key):
        return False

    def warm_up(self):
        self._spawn(self.commands["eval"][0])
        self.peak_rss_kb = 0

    def _argv(self):
        if self.spans_path is None:
            return [sys.executable, "-m", "codebounds"]
        return [sys.executable, os.path.join(HERE, "cli_child.py"), self.spans_path]

    def _spawn(self, args):
        """Run one command to its end; returns (exit code, stdout)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "w+b") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen(self._argv() + args, stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read().decode()

    def run(self, key):
        want_code, (mode, text), ref = self.expected[key]
        if ref is not None and os.path.exists(ref[0]):
            os.remove(ref[0])
        returncode, stdout = self._spawn(self.commands[key][0])
        if self.spans_path is not None:
            self._collect_spans()
        if returncode != want_code:
            return "wrong", f"exit {returncode}"
        if stdout != text if mode == "exact" else not stdout.startswith(text):
            return "wrong", "stdout"
        if ref is not None:
            with open(ref[0], "rb") as fh:
                if fh.read() != ref[1]:
                    return "wrong", "file bytes"
        return "ok", f"exit {want_code}"

    def _collect_spans(self):
        from spans import read

        header, spans = read(self.spans_path)
        os.remove(self.spans_path)
        self.child_spans.append((header["import_s"], spans))


def build(name, seed, tiny, workdir, env):
    # round_s sets how many rounds a run of --seconds plans: about one
    # round's length on a 2-vCPU host running at two thirds of full speed
    if name == "kissing_lp":
        return LPWorkload(TINY_KISSING if tiny else KISSING_CASES, 30.0, 6.0,
                          seed, workdir)
    if name == "lp_stress":
        return LPWorkload(TINY_STRESS if tiny else STRESS_CASES,
                          0.5 if tiny else 4.0, 12.0, seed, workdir)
    if name == "consistency_sweep":
        return ConsistencySweep(seed, tiny)
    if name == "cli_cold":
        return CliCold(seed, tiny, workdir, env)
    raise ValueError(f"unknown workload {name!r}")
