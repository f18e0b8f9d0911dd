#!/usr/bin/env python3
"""codebounds benchmark: four closed-loop workloads with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is missing.

Workloads (see BENCHMARK.json for why each is there):
  kissing_lp         lp_bound + JSON write/reload + verify_certificate
  lp_stress          lp_bound cases that stall the dense-tableau fallback
  consistency_sweep  functional_pfender_check over (code, certificate) pairs
  cli_cold           a fresh ``python -m codebounds`` process per command

Every op starts when the previous one ends, in this one process (CLI
commands in a child each). Ops come in whole rounds: one pass over the
workload's inputs in an order drawn from the seed. A run plans
round(seconds / nominal round length) rounds, at least one, so every run
of a workload times the same ops the same number of times; it starts no
further round once ``--seconds`` have passed, which happens only on a
2-vCPU host running below about two thirds of its full speed (see the
round lengths in workloads.build). Each op has a deadline; a timed-out
op counts as failed and is never dropped.

``correct`` is false as soon as one op fails, except that on lp_stress the
two inputs known to stall the LP may time out (and then count as failed).

``--trace 0`` prints the end-to-end metrics. ``ops_per_s`` counts the ops
that succeeded. ``ok_frac`` is their share of the ops attempted (1 -
failed share), so it is never zero. ``setup_s`` covers the imports,
building the workload's inputs and the warm-up, not the expected outputs
the benchmark checks against; it is the median over this process and two
fresh ones doing the same set-up, because the import time of one
interpreter alone spreads by more than 25% from run to run.

Times are wall clock, scaled to a reference host speed (see pace.py): the
set-up time and the time of every op that did not time out are divided by
the host's slowdown measured over them; a timed-out op counts with its
deadline as is. The detail line records the slowdowns and the unscaled
figures, and the op latency median (``op_p50_ms``) and tail
(``op_tail_ms``: the highest percentile with at least ten samples above
it, with that percentile), unscaled. Those two are not in the result: the
median and tail of sub-millisecond ops spread by more than 25% from run
to run. BLAS is capped at one thread, and the run (with its child
processes) is pinned to one CPU, so the pace kernel times the CPU the
work runs on.

``--trace 1`` runs half the time untraced, then one round with every
public function of the package wrapped in spans (see spans.py), prints
the per-layer metrics and the tracing overhead, and writes the spans to
.bench_out/spans_<workload>.jsonl.

The last stdout line is the result object; the line before it records
provenance, per-op outcomes, op latency median and tail.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import Pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("kissing_lp", "lp_stress", "consistency_sweep", "cli_cold")
CPUS = sorted(os.sched_getaffinity(0))  # before the run pins itself to one
SETUP_SAMPLES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_STATS = (
    ("gegenbauer.basis_values", ("calls", "points", "busy_s")),
    ("linprog.solve_lp", ("calls", "busy_s", "iterations", "rows", "not_optimal")),
    ("scanning.scan_maximum", ("calls", "self_s")),
    ("dgs_bound.lp_bound", ("calls", "self_s", "rounds", "timeouts")),
    ("dgs_bound.verify_certificate", ("calls", "self_s")),
    ("pfender.functional_pfender_check", ("calls", "self_s", "applicable")),
    ("pfender.double_sum", ("calls", "busy_s")),
    ("codes.verify", ("calls", "busy_s")),
    ("codes.lipschitz_norm", ("calls", "busy_s")),
    ("jsonutil.dump_path", ("calls", "bytes", "busy_s")),
    ("jsonutil.load_path", ("calls", "busy_s")),
)
PER_LAYER_EXTRA_UNITS = {
    "cli.import_s": "s",
    "cli.command_s": "s",
    "trace.ops": "count",
    "trace.wall_s": "s",
    "trace.overhead": "fraction",
}


class Deadline(BaseException):
    """Raised inside an op when its deadline passes (not an Exception, so
    no handler in the package can swallow it)."""


def _on_alarm(signum, frame):
    raise Deadline()


def _stat_unit(stat):
    if stat == "bytes":
        return "B"
    return "s" if stat.endswith("_s") else "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up sample (smoke check)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time, exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def set_up(args, workdir):
    """Import the package, build the workload's inputs, warm up.

    Returns (workload, setup_s, import_s, host slowdown). The slowdown is
    measured from the end of the import on, as the pace kernel needs numpy."""
    start = time.perf_counter()
    import codebounds.cli  # noqa: F401  (the CLI imports every module)

    import_s = time.perf_counter() - start
    pace = Pace(interval_s=0.0)
    resumed = time.perf_counter()
    imported = Path(sys.modules["codebounds"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        raise SystemExit(f"error: codebounds imported from {imported}, not {SRC}")
    import workloads

    wl = workloads.build(args.workload, args.seed, args.tiny, workdir, child_env())
    pace.tick()
    wl.warm_up()
    setup_s = import_s + time.perf_counter() - resumed - pace.spent_s
    return wl, setup_s, import_s, pace.slowdown()


def probe_setup(args):
    """(set-up time, host slowdown) of fresh interpreters running this
    same set-up."""
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Phase:
    def __init__(self):
        self.latencies = []
        self.statuses = Counter()
        self.outcomes = defaultdict(Counter)
        self.unexpected = 0  # failed ops that make the run incorrect
        self.rounds = 0
        self.wall_s = 0.0  # without the pace kernel
        self.timeout_s = 0.0  # spent in ops that timed out
        self.slowdown = 1.0

    def ok_rate(self):
        """Ops that succeeded per second at the reference host speed."""
        busy_s = self.wall_s - self.timeout_s
        return self.statuses["ok"] / (self.timeout_s + busy_s / self.slowdown)


def rounds_for(wl, seconds):
    return max(1, round(seconds / wl.round_s))


def run_phase(wl, rounds, seconds=math.inf, tracer=None):
    phase = Phase()
    gc.collect()
    clock = time.perf_counter
    pace = Pace()
    start = clock()
    for _ in range(rounds):
        if phase.rounds and clock() - start >= seconds:
            break
        for op in wl.round():
            began = clock()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
                    status, outcome = wl.run(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                status, outcome = "timeout", "timeout"
            except Exception as exc:  # an unexpected error fails the op
                status, outcome = "error", type(exc).__name__
            phase.latencies.append(clock() - began)
            if status == "timeout":
                phase.timeout_s += phase.latencies[-1]
            if tracer is not None:
                tracer.close_open()
            phase.statuses[status] += 1
            phase.outcomes[wl.op_name(op)][outcome] += 1
            if status != "ok" and not (status == "timeout" and wl.may_time_out(op)):
                phase.unexpected += 1
            pace.tick()
        phase.rounds += 1
    phase.wall_s = clock() - start - pace.spent_s
    phase.slowdown = pace.slowdown()
    return phase


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it
    (the lowest sample when there are too few), and that percentile."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(phase, setup_samples, peak_rss_mb):
    values = {
        "ops_per_s": phase.ok_rate(),
        "ok_frac": phase.statuses["ok"] / len(phase.latencies),
        "setup_s": statistics.median(s / slowdown for s, slowdown in setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(all_spans, untraced, traced, import_s, cli_imports):
    import spans

    stats = spans.summarize(all_spans)
    metrics = {}
    for name, wanted in PER_LAYER_STATS:
        stat = stats.get(name, spans.Stat())
        for key in wanted:
            if key in ("calls", "busy_s", "self_s", "rounds", "timeouts"):
                value = getattr(stat, key)
            else:
                value = stat.counts.get(key, 0)
            metrics[f"{name}.{key}"] = {"value": value, "unit": _stat_unit(key)}
    commands = [s[2] - s[1] for s in all_spans if s[0] == "cli.main" and s[3] < 0]
    untraced_rate = untraced.ok_rate()
    traced_rate = traced.ok_rate()
    extra = {
        "cli.import_s": statistics.median(cli_imports) if cli_imports else import_s,
        "cli.command_s": statistics.median(commands) if commands else 0.0,
        "trace.ops": len(traced.latencies),
        "trace.wall_s": traced.wall_s,
        "trace.overhead": untraced_rate / traced_rate - 1.0,
    }
    for key, value in extra.items():
        metrics[key] = {"value": value, "unit": PER_LAYER_EXTRA_UNITS[key]}
    return metrics


def provenance():
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[-1],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "codebounds" / "__init__.py").is_file():
        print(f"error: no codebounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {CPUS[-1]})
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl, setup_s, import_s, slowdown = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps([setup_s, slowdown]))
            return 0
        wl.prepare_checks()
        return measure(args, wl, (setup_s, slowdown), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup, import_s) -> int:
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "deadline_s": wl.deadline_s, "provenance": provenance()}
    if args.trace == 0:
        setup_samples = [setup] + probe_setup(args)
        phase = run_phase(wl, rounds_for(wl, args.seconds), args.seconds)
        phases = [phase]
        rss_kb = (wl.peak_rss_kb if args.workload == "cli_cold"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = end_to_end(phase, setup_samples, rss_kb / 1024.0)
        tail_s, tail_percentile = tail(phase.latencies)
        detail.update(setup_samples=[{"s": s, "slowdown": x} for s, x in setup_samples],
                      ops_per_s_unscaled=phase.statuses["ok"] / phase.wall_s,
                      op_p50_ms=statistics.median(phase.latencies) * 1e3,
                      op_tail_ms=tail_s * 1e3, op_tail_percentile=tail_percentile)
    else:
        import spans

        untraced = run_phase(wl, rounds_for(wl, args.seconds / 2), args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        if args.workload == "cli_cold":
            wl.spans_path = str(OUT / "cli_child_spans.jsonl")
        try:
            traced = run_phase(wl, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        cli_imports = []
        for child_import_s, child_spans in getattr(wl, "child_spans", []):
            offset = len(tracer.spans)
            for span in child_spans:
                if span[3] >= 0:
                    span[3] += offset
                tracer.spans.append(span)
            cli_imports.append(child_import_s)
        tracer.write(str(OUT / f"spans_{args.workload}.jsonl"),
                     {"workload": args.workload, "seed": args.seed,
                      "wall_s": traced.wall_s})
        phases = [untraced, traced]
        metrics = per_layer(tracer.spans, untraced, traced, import_s, cli_imports)
    statuses = sum((p.statuses for p in phases), Counter())
    attempted = sum(statuses.values())
    outcomes = defaultdict(Counter)
    for p in phases:
        for op, counts in p.outcomes.items():
            outcomes[op].update(counts)
    detail.update(rounds=[p.rounds for p in phases],
                  wall_s=[p.wall_s for p in phases],
                  slowdown=[p.slowdown for p in phases],
                  statuses=dict(statuses),
                  outcomes={op: dict(c) for op, c in sorted(outcomes.items())})
    if hasattr(wl, "expected_count"):
        detail["expected_applicable_per_round"] = wl.expected_count
    result = {
        "correct": sum(p.unexpected for p in phases) == 0,
        "attempted": attempted,
        "failed": attempted - statuses["ok"],
        "metrics": metrics,
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
