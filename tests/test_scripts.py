"""Scripts run end to end and write what the library computes."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from codebounds import dgs_bound, jsonutil, pfender
from codebounds.dgs_bound import lp_bound
from codebounds.pfender import PhiSpec, certificate_to_json_dict
from codebounds.errors import LPFailureError, NoCertificateError
from codebounds.linprog import solve_lp

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_kissing_bounds_writes_the_library_certificates(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "kissing_bounds.py"),
            "--dims", "3,8", "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for d, degree in ((3, 10), (8, 6)):
        written = (tmp_path / f"kissing_d{d}_m{degree}.json").read_bytes()
        expected = jsonutil.dumps(certificate_to_json_dict(lp_bound(d, 0.5, degree)))
        assert written == expected.encode()


def test_domain_sweep_reruns_differ_only_in_the_slowest_line():
    # the first 126 seed-3 inputs, the last of which, (148, .3941, 24), ends
    # in an error
    command = [
        sys.executable, str(SCRIPTS / "domain_sweep.py"), "--seed", "3", "--n", "126",
        "--max-dim", "199", "--max-cos", "0.999",
    ]
    runs = []
    for _ in range(2):
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1].startswith("slowest: ")
        runs.append(lines[:-1])
    assert runs[0] == runs[1]
    lines = runs[0]
    start = next(i for i, line in enumerate(lines) if line.startswith("polished: "))
    assert re.fullmatch(r"pivots: \d+ in \d+ LP solves", lines[start - 3])
    assert re.fullmatch(r"restarts: \d+", lines[start - 2])
    assert re.fullmatch(r"outputs: [0-9a-f]{64}", lines[start - 1])
    assert re.fullmatch(r"polished: \d+ of (\d+) certificates", lines[start])
    assert re.fullmatch(r"levenshtein: \d+ of \d+ certificates", lines[start + 1])
    certificates = re.fullmatch(r"polished: \d+ of (\d+) certificates", lines[start])[1]
    assert lines[start + 2] == f"proven: {certificates} of {certificates} certificates"
    worse = re.fullmatch(
        r"worse than Levenshtein: (\d+) of \d+ certificates at a degree >= m\(s\)",
        lines[start + 3],
    )
    # each worse input on a line of its own, and nothing after them
    listed = lines[start + 4 :]
    assert worse and len(listed) == int(worse[1])
    assert all(
        re.fullmatch(r"\(.+\): \S+ against L \S+ \(x \S+\)", line) for line in listed
    )
    # an input line, the kind that once carried its own time
    assert any(line.startswith("(") for line in runs[0])


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", SCRIPTS / "domain_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


@pytest.mark.parametrize(
    "error, code", [(NoCertificateError("none"), 0), (LPFailureError("stall"), 1)]
)
def test_domain_sweep_exits_1_on_an_error_other_than_no_certificate(
    monkeypatch, capsys, error, code
):
    sweep = load_sweep()

    def ends_in_error(*case):
        raise error

    monkeypatch.setattr(sweep, "lp_bound", ends_in_error)
    monkeypatch.setattr(sys, "argv", ["domain_sweep.py", "--n", "3"])
    assert sweep.main() == code
    assert "    3  " in capsys.readouterr().out


def test_domain_sweep_exits_1_on_a_certificate_it_cannot_prove(monkeypatch, capsys):
    # 1 + G_1 = 1 + t passes no sign condition on [-1, .5]: the exact
    # oracle refutes it at the interval's end
    sweep = load_sweep()

    def positive(d, cos_theta, degree):
        return pfender.pfender_bound(PhiSpec("gegenbauer", [0.0, 1.0], dim=d), 1.0, 0.5)

    monkeypatch.setattr(sweep, "lp_bound", positive)
    monkeypatch.setattr(sys, "argv", ["domain_sweep.py", "--n", "2"])
    assert sweep.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert "proven: 0 of 2 certificates" in lines
    refuted = [line for line in lines if "certificate refuted: " in line]
    assert len(refuted) == 2
    assert all(line.endswith("> 0 at t = 0.5") for line in refuted)


def test_domain_sweep_proves_a_certificate_at_cos_theta_minus_1(monkeypatch, capsys):
    # [-1, -1] is one point, decided by the exact sign of P(-1)
    sweep = load_sweep()
    monkeypatch.setattr(
        sweep, "sweep_inputs", lambda *args: [(3, -1.0, 2), (24, -1.0, 10)]
    )
    monkeypatch.setattr(sys, "argv", ["domain_sweep.py"])
    assert sweep.main() == 0
    assert "proven: 2 of 2 certificates" in capsys.readouterr().out.splitlines()


def test_domain_sweep_names_a_false_lp_infeasible_claim(monkeypatch, capsys):
    # f_39 is a certificate at (121, .579, 39), where m(s) = 39, so an LP's
    # "infeasible" is false there; at (24, .7, 12), m(s) = 19 > 12, it holds.
    # The LP is stubbed: which outcome the real one reaches at (121, .579,
    # 39) depends on the BLAS kernel (tests/test_levenshtein.py pins it)
    sweep = load_sweep()

    def infeasible(*case):
        raise NoCertificateError(f"the degree-{case[2]} LP is infeasible")

    monkeypatch.setattr(sweep, "lp_bound", infeasible)
    monkeypatch.setattr(
        sweep, "sweep_inputs", lambda *args: [(121, 0.579, 39), (24, 0.7, 12)]
    )
    monkeypatch.setattr(sys, "argv", ["domain_sweep.py"])
    assert sweep.main() == 0
    lines = capsys.readouterr().out.splitlines()
    false_claim = "NoCertificateError (LP infeasible at m(s) <= degree)"
    assert f"(121, 0.579, 39): {false_claim}" in lines
    assert f"    1  {false_claim}" in lines
    assert "    1  NoCertificateError (LP infeasible)" in lines
    assert not any(line.startswith("(24, 0.7, 12)") for line in lines)


def test_domain_sweep_counts_the_pivots_of_every_lp_solve(monkeypatch, capsys):
    # the first 20 seed-3 inputs, some of which run the grid LP
    sweep, iterations = load_sweep(), []

    def solve(lp, basis=None):
        solution = solve_lp(lp, basis)
        # the pools restart nowhere: mark the first solve as a restart
        solution.restarts = int(not iterations)
        iterations.append(solution.iterations)
        return solution

    monkeypatch.setattr(sweep, "solve_lp", solve)
    monkeypatch.setattr(sys, "argv", [
        "domain_sweep.py", "--seed", "3", "--n", "20", "--max-dim", "199",
        "--max-cos", "0.999",
    ])
    assert sweep.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(iterations) > 0
    assert f"pivots: {sum(iterations)} in {len(iterations)} LP solves" in lines
    assert "restarts: 1" in lines
    # the count wraps lp_bound's solver only while the sweep runs
    assert dgs_bound.solve_lp is solve_lp


def test_consistency_harness_finds_zero_violations():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "consistency_harness.py"), "--n-random", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # 11 catalog codes, each as an l_2 and as a metric code, and 20 random
    assert " over 42 codes x 27 certificates " in proc.stdout
    assert "zero violations" in proc.stdout.splitlines()
