"""Scripts run end to end and write what the library computes."""

import subprocess
import sys
from pathlib import Path

from codebounds import jsonutil
from codebounds.dgs_bound import certificate_to_json_dict, lp_bound

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
    # the first 43 seed-3 inputs, the last of which ends in an error
    command = [
        sys.executable, str(SCRIPTS / "domain_sweep.py"), "--seed", "3", "--n", "43",
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
    # an input line, the kind that once carried its own time
    assert any(line.startswith("(") for line in runs[0])


def test_consistency_harness_finds_zero_violations():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "consistency_harness.py"), "--n-random", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "zero violations" in proc.stdout.splitlines()
