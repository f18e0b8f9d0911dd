"""Scripts run end to end and write what the library computes."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from codebounds import dgs_bound, jsonutil
from codebounds.dgs_bound import lp_bound
from codebounds.pfender import certificate_to_json_dict
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
    worse = re.fullmatch(
        r"worse than Levenshtein: (\d+) of \d+ certificates at a degree >= m\(s\)",
        lines[start + 2],
    )
    # each worse input on a line of its own, and nothing after them
    listed = lines[start + 3 :]
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
