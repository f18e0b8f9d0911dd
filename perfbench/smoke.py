#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at its tiny size.

    python3 perfbench/smoke.py

For each workload, with --trace 0 and --trace 1, checks that the result
line has exactly the keys correct/attempted/failed/metrics, that every
metric BENCHMARK.json names is emitted with its unit, and that in the
traced run the spans' self times sum to no more than the traced wall
time. Last, checks that the benchmark exits non-zero without a result in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
from run import OUT, ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def fail(message):
    print(f"SMOKE FAIL: {message}")
    raise SystemExit(1)


def run_bench(cwd, workload, trace, tiny=True):
    cmd = [sys.executable, str(RUN) if cwd == ROOT else "perfbench/run.py",
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload}: correct={result['correct']} attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{workload}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        value = got[metric["name"]]
        if value["unit"] != metric["unit"]:
            fail(f"{workload}: {metric['name']} unit {value['unit']} != {metric['unit']}")
        if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
            fail(f"{workload}: {metric['name']} = {value['value']!r}")
    if trace:
        header, recorded = spans.read(str(OUT / f"spans_{workload}.jsonl"))
        total_self = sum(spans.self_times(recorded))
        if total_self > header["wall_s"]:
            fail(f"{workload}: self times {total_self} s exceed wall {header['wall_s']} s")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, attempted "
          f"{result['attempted']}")


def check_bare_directory():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0, tiny=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and '"metrics"' in lines[-1]):
            fail("benchmark succeeded in a directory without the package")
    finally:
        shutil.rmtree(bare)
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
