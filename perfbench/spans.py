"""In-memory call spans for the traced benchmark run.

``Tracer.install`` wraps every public function of the traced codebounds
modules and rebinds the wrapper under every name that holds the original,
in every loaded codebounds module. ``dgs_bound`` and ``pfender`` import
``solve_lp``, ``scan_maximum`` and ``basis_values`` by name, so patching
only the defining module would miss their calls.

A span is ``[name, start, end, parent, status, extra]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``status`` is "ok" or
the name of the exception that ended the call, and ``extra`` holds the
few counts read from a call's arguments or result (points evaluated, LP
rows and iterations, applicability, bytes written). Spans stay in memory
until ``write``.

This module imports only the standard library, so the traced CLI child
can load it without moving numpy's import cost out of the timed import.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

TRACED_MODULES = (
    "gegenbauer",
    "linprog",
    "scanning",
    "dgs_bound",
    "pfender",
    "codes",
    "jsonutil",
    "cli",
)

# Status of a span that the benchmark's deadline cut short: the class name
# of run.Deadline, the exception that ends the op.
DEADLINE = "Deadline"


def _size(r) -> int:
    size = getattr(r, "size", None)
    if size is not None:
        return int(size)
    return len(r) if isinstance(r, (list, tuple)) else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


_EXTRAS = {
    "gegenbauer.basis_values": lambda a, k, res: {
        "points": _size(_arg(a, k, 2, "r"))
    },
    "linprog.solve_lp": lambda a, k, res: {
        "rows": len(_arg(a, k, 0, "lp").constraints),
        "iterations": int(res.iterations),
        "not_optimal": int(res.status != "optimal"),
    },
    "pfender.functional_pfender_check": lambda a, k, res: {
        "applicable": int(res.applicable)
    },
    "jsonutil.dump_path": lambda a, k, res: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, "ok", None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "codebounds") -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def close_open(self) -> None:
        """End the spans a deadline left open, at the current time."""
        now = time.perf_counter()
        for index in self._stack:
            span = self.spans[index]
            if span[2] == 0.0:
                span[2] = now
                span[4] = DEADLINE
        self._stack.clear()

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read(path: str) -> tuple[dict, list[list]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct child spans."""
    own = [max(s[2] - s[1], 0.0) for s in spans]
    out = list(own)
    for span, duration in zip(spans, own):
        if span[3] >= 0:
            out[span[3]] -= duration
    return out


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "counts", "rounds", "timeouts")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}
        self.rounds = 0
        self.timeouts = 0


def summarize(spans: list[list]) -> dict[str, Stat]:
    """Per-function totals. ``busy_s`` counts only the outermost span of a
    name, so a function that calls itself is not counted twice."""
    selfs = self_times(spans)
    stats: dict[str, Stat] = {}
    for index, span in enumerate(spans):
        name, start, end, parent = span[0], span[1], span[2], span[3]
        stat = stats.setdefault(name, Stat())
        stat.calls += 1
        stat.self_s += selfs[index]
        if span[4] == DEADLINE:
            stat.timeouts += 1
        for key, value in (span[5] or {}).items():
            stat.counts[key] = stat.counts.get(key, 0) + value
        ancestor, nested = parent, False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            stat.busy_s += max(end - start, 0.0)
        if name == "linprog.solve_lp" and parent >= 0:
            if spans[parent][0] == "dgs_bound.lp_bound":
                stats.setdefault("dgs_bound.lp_bound", Stat()).rounds += 1
        if name == "linprog.solve_lp" and span[4] != "ok":
            stat.counts["not_optimal"] = stat.counts.get("not_optimal", 0) + 1
    return stats
