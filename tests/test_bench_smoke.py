"""The benchmark's own smoke check, run as part of the test suite.

The traced benchmark wraps the package's public functions by name, so a
renamed or removed function breaks it; running ``perfbench/smoke.py``
here makes such a change fail the tests instead of the next benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke check passed" in proc.stdout
