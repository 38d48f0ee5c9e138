"""Per-layer timings of the certify path, the clique search, the Monte
Carlo decoder and the package import at fixed work.

    python3 tools/bench_layers.py [--tree PATH]

The package is imported from PATH/src (default: this checkout), so a
`git archive` of another revision unpacked at PATH is timed the same way;
the tool stops if the package it imports lies anywhere else.
The benchmark's reference loop (perfbench/pace.py), certify and codes job
lists (perfbench/run.py) and certify runner (perfbench/worker.py) are
loaded read-only from this checkout's perfbench/, so both trees run the
same jobs against the same reference.  Cases, each with its caches cleared
before every run, outside the timed region:

  first_root       first_root(64, ell) for ell = 1..64, cold
  mrrw_params      mrrw_params(64, 20), Krawtchouk table and roots cold
  kraw_table       lpbound._kraw_table(64), cold
  lp_10_3, lp_28_3 solve_distance_lp at (10, 3) and (28, 3), table warm
  certify_seed1    the benchmark's 36 certify jobs of seed 1, caches cleared
  maxcode_3_2      max_code(3, 2), with the length tables and the searches
                   at every length cleared
  maxcode_3_3      max_code(3, 3), cleared likewise
  maxcode_3_inf    max_code(3, inf), cleared likewise
  mc_criterion10   monte_carlo_pe on the criterion-10 code (125 words of
                   length 4) at 2^16 trials, the codes job of seed 1
  mc_256x10        monte_carlo_pe on the 256 x 10 code at 10^4 trials with
                   batch 2048, the codes job of seed 1
  mc_pentagon      monte_carlo_pe on README's code, max_code(2, inf), at
                   10^6 trials and seed 0, as README's simulate runs it
  mc_wide          monte_carlo_pe on 2000 random words of length 10
                   (default_rng(5)) at 2^15 trials and seed 7, decoded trial
                   by trial over rows of 32 words: the shape where the
                   decoder's per-bit work shows most
  import_package   a fresh `python -c "import typewriter_bounds"`, with
                   PATH/src first on PYTHONPATH, one process at a time
  import_cli       a fresh `python -c "import typewriter_bounds.cli"`, likewise

The two import cases hash the sorted names of the package's modules that
the import loaded.  numpy.random is imported before any case, so the
Monte Carlo cases time the decoder and not numpy's lazy import of it.

Each case runs REPEATS times (the import cases IMPORT_REPEATS times),
alternating with the reference loop, and each run is scaled to reference
seconds by the loop's pace on its two sides, as the benchmark scales its
jobs.  One line per case goes to stdout: minimum and median reference
seconds, median measured seconds, and the sha256 of the case's output,
which is the same on every run and changes when a result changes.  A fresh
interpreter's start-up swings more than the pace corrects, so compare the
import cases by their minimum.

The three clique-search cases add a line with the nodes of each pass of the
n = 3 search, in the order the passes ran: the calls to the search's inner
functions (grow for a size pass, scan for a witness pass), counted with
sys.setprofile outside the timed runs.  A count does not move with the
host, so it shows a change in the search that timings blur.  The Monte
Carlo cases add a line with the peak that tracemalloc traces over one
untimed call and the call's error count, which is also the case's output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
REPEATS = 7
IMPORT_REPEATS = 25


def clear(*functions) -> None:
    """Empty the memo of each function that has one, so a revision that
    memoises first_root is timed cold too; one without has nothing to clear."""
    for fn in functions:
        getattr(fn, "cache_clear", lambda: None)()


def cases(tb, run, worker) -> dict:
    """name -> (prepare, body): prepare runs untimed before each timed body,
    and the body returns the output that is hashed."""
    lp = tb.lpbound
    jobs = run.certify_jobs(1)
    simulate_jobs = [job for job in run.codes_jobs(1) if job["kind"] == "simulate"]

    def lp_case(n, d):
        def solve():
            sol = lp.solve_distance_lp(n, d)
            return [sol.status, [v.hex() for v in sol.lam], sol.objective.hex()]
        return (lambda: lp._kraw_table(n), solve)

    def max_code(d):
        def search():
            size, words = lp.max_code(3, d)
            return [size, [list(w) for w in words]]
        return (lambda: clear(lp._max_code_impl, lp._length_tables), search)

    def monte_carlo(code, job):
        batch = {"batch": job["batch"]} if "batch" in job else {}

        def simulate():
            return tb.channel.monte_carlo_pe(code, job["trials"], job["seed"], **batch).errors
        return (lambda: None, simulate)

    criterion10 = next(job for job in simulate_jobs if "generator" in job
                       and job["generator"][2] == run.CRITERION_10_INNER)
    long_code = next(job for job in simulate_jobs if len(job.get("words", ())) == 256)
    gen = tb.construction.StructuredGenerator(*criterion10["generator"])

    def mrrw():
        t, a, objective = lp.mrrw_params(64, 20)
        return [t, a.hex(), objective.hex()]

    src = Path(tb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def fresh_import(module):
        probe = (f"import sys, {module}; print(sys.modules['typewriter_bounds'].__file__); "
                 "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'typewriter_bounds'))")

        def start():
            out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                 capture_output=True, text=True).stdout.splitlines()
            if src not in Path(out[0]).resolve().parents:
                raise RuntimeError(f"the fresh process imported {out[0]}, not from {src}")
            return out[1].split()
        return (lambda: None, start)

    return {
        "first_root": (lambda: clear(lp.first_root),
                       lambda: [lp.first_root(64, ell).hex() for ell in range(1, 65)]),
        "mrrw_params": (lambda: clear(lp.first_root, lp._kraw_table), mrrw),
        "kraw_table": (lambda: clear(lp._kraw_table), lambda: lp._kraw_table(64).tobytes().hex()),
        "lp_10_3": lp_case(10, 3),
        "lp_28_3": lp_case(28, 3),
        "certify_seed1": (lambda: clear(lp.first_root, lp._kraw_table),
                          lambda: [worker.run_certify(job, tb) for job in jobs]),
        "maxcode_3_2": max_code(2),
        "maxcode_3_3": max_code(3),
        "maxcode_3_inf": max_code(float("inf")),
        "mc_criterion10": monte_carlo(tb.construction.code_from_generator(gen), criterion10),
        "mc_256x10": monte_carlo(long_code["words"], long_code),
        "mc_pentagon": monte_carlo(lp.max_code(2, float("inf"))[1], {"trials": 10**6, "seed": 0}),
        "mc_wide": monte_carlo(np.random.default_rng(5).integers(0, 5, size=(2000, 10)),
                               {"trials": 1 << 15, "seed": 7}),
        "import_package": fresh_import("typewriter_bounds"),
        "import_cli": fresh_import("typewriter_bounds.cli"),
    }


def pass_nodes(lp, d) -> list:
    """[function, nodes] per pass of the cold max_code(3, d) search, in
    order; a pass starts at each call from the search function itself."""
    lp.max_code(3, d)  # the searches one length down, which stay cached
    passes = []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("grow", "scan") and code.co_filename == lp.__file__:
            if frame.f_back.f_code.co_name == "_max_clique_with_zero":
                passes.append([code.co_name, 0])
            passes[-1][1] += 1

    sys.setprofile(count)
    try:
        lp._max_code_impl.__wrapped__(3, lp._normalize_d(3, d))
    finally:
        sys.setprofile(None)
    return passes


def traced_peak(body) -> tuple:
    """(peak bytes that tracemalloc traces over one call of body, its output)."""
    tracemalloc.start()
    try:
        out = body()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def time_case(prepare, body, pace, repeats) -> dict:
    paces, seconds, digests = [pace.ref_loop()], [], set()
    for _ in range(repeats):
        prepare()
        t0 = time.perf_counter()
        out = body()
        seconds.append(time.perf_counter() - t0)
        paces.append(pace.ref_loop())
        digests.add(hashlib.sha256(json.dumps(out).encode()).hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"output changed between runs: {sorted(digests)}")
    ref = [pace.reference_seconds([s], paces[i:i + 2]) for i, s in enumerate(seconds)]
    return {"ref_min_s": min(ref), "ref_median_s": statistics.median(ref),
            "median_s": statistics.median(seconds), "sha256": digests.pop()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ is timed")
    args = p.parse_args(argv)

    src = args.tree.resolve() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERFBENCH))
    import numpy.random  # noqa: F401  numpy imports it lazily, on first use
    import typewriter_bounds as tb
    import pace, run, worker

    if src not in Path(tb.__file__).resolve().parents:
        sys.exit(f"typewriter_bounds was imported from {tb.__file__}, not from {src}")
    for name, (prepare, body) in cases(tb, run, worker).items():
        result = time_case(prepare, body, pace, IMPORT_REPEATS if name.startswith("import_") else REPEATS)
        print(f"{name:14s} ref min {result['ref_min_s']:.4f} s  median {result['ref_median_s']:.4f} s  "
              f"(measured {result['median_s']:.4f} s)  sha256 {result['sha256']}", flush=True)
        if name.startswith("maxcode_3_"):
            d = name.rsplit("_", 1)[1]
            d = float(d) if d == "inf" else int(d)
            nodes = ", ".join(f"{fn} {count}" for fn, count in pass_nodes(tb.lpbound, d))
            print(f"{name:14s} nodes per pass: {nodes}", flush=True)
        if name.startswith("mc_"):
            peak, errors = traced_peak(body)
            print(f"{name:14s} traced peak {peak / 2**20:.2f} MiB, errors {errors}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
