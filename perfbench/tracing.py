"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` wraps each function listed in LAYERS and rebinds the wrapper
everywhere the package holds the original: in its defining module, in every
module that imported it by name, and in the package namespace.  Each call
records one span (name, start, end, parent, job) in memory; `write_spans`
dumps them at the end and `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "typewriter_bounds"

LAYERS = {
    "scalars": ("krawtchouk", "bisect_root"),
    "simplex": ("simplex_solve",),
    "lpbound": (
        "solve_distance_lp",
        "composite_bound",
        "first_root",
        "mrrw_params",
        "mrrw_certificate",
        "certificate_function",
        "verify_certificate",
        "max_code",
    ),
    "fourier": ("dft", "idft", "freq_sphere_indicator", "lovasz_assignment"),
    "construction": (
        "weight_spectrum",
        "code_from_generator",
        "read_code_file",
        "write_code_file",
    ),
    "channel": ("monte_carlo_pe",),
    "curves": ("sample_curves",),
    "expurgated": ("ex_exponent_inf", "q_form"),
    "verification": ("run_suite",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

CLI_SUBCOMMANDS = (
    "curves",
    "figure1",
    "expurgated",
    "gv",
    "lp",
    "maxcode",
    "simulate",
    "verify",
)


# counts read from returned values: metric suffix -> function of the result
def _not_optimal(res) -> int:
    return int(res.status != "optimal")


RESULT_COUNTS = {
    "simplex.simplex_solve": {
        "iterations": lambda res: res.iterations,
        "not_optimal": _not_optimal,
    },
    "lpbound.solve_distance_lp": {"not_optimal": _not_optimal},
    "lpbound.mrrw_params": {"none": lambda res: int(res is None)},
    "lpbound.verify_certificate": {"not_ok": lambda res: int(not res.ok)},
    "channel.monte_carlo_pe": {"trials": lambda res: res.trials},
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    for name, counts in RESULT_COUNTS.items():
        out += [(f"{name}.{key}", "count") for key in counts]
    out += [(f"cli.{sub}.s", "s") for sub in CLI_SUBCOMMANDS]
    return out


class Tracer:
    """In-memory span log.  A span is (name, start, end, parent, job)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counters = RESULT_COUNTS.get(name, {})
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), math.nan, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, count in counters.items():
                counts[f"{name}.{key}"] += count(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every binding of every function in FUNCTIONS."""
        importlib.import_module(PACKAGE)
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in FUNCTIONS:
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": self.counts, "spans": self.spans}, fh)


def read_spans(path) -> tuple[list[tuple], dict[str, int]]:
    """Spans from write_spans as (name, start, end, parent, job), and counts."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [(names[i], start, end, parent, job) for i, start, end, parent, job in data["spans"]]
    return spans, data["counts"]


def summarize(span_sets, counts: dict[str, int], cli_seconds: dict[str, float]) -> dict:
    """Per-layer metrics from one or more span lists (one per process).

    busy_s sums span durations, children included; self_s subtracts the
    durations of each span's direct children.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)
    for spans in span_sets:
        for name, start, end, parent, _job in spans:
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            if parent >= 0:
                child[spans[parent][0]] += dur
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name]
        metrics[f"{name}.self_s"] = busy[name] - child[name]
    for name, keys in RESULT_COUNTS.items():
        for key in keys:
            metrics[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0)
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.s"] = cli_seconds.get(sub, 0.0)
    return metrics
