"""Child process that calls the package for the benchmark.

Two modes, both started by run.py with PYTHONPATH pointing at the
checkout's src directory:

    worker.py JOBS RESULTS [--spans SPANS]
        run the in-process jobs listed in JOBS (certify or codes), one after
        another, timing the reference loop of pace.py before the first job
        and again after each PACE_EVERY_S of job time, and write their
        outputs, job times, reference-loop times and peak RSS to RESULTS;
    worker.py --cli SPANS JOB -- ARGS...
        install the tracing wrappers, then run the CLI's main(ARGS) (used
        only by the traced paper_cli run).

With --spans the wrappers from tracing.py are installed before the first
job and the spans are written to SPANS at the end.  The worker does no
checking; run.py checks the outputs after the timed region.
"""

from __future__ import annotations

import json
import math
import sys
import time

import pace
import tracing

# time the reference loop again once this much job time has passed
PACE_EVERY_S = 0.5


def _lp(sol) -> dict:
    return {
        "status": sol.status,
        "lam": list(sol.lam),
        "objective": sol.objective,
    }


def run_certify(job, tb) -> dict:
    """One (n, d) certification: LP, composite bound, explicit multiplier."""
    n, d = job["n"], job["d"]
    out, errors = {}, []
    try:
        sol = tb.lpbound.solve_distance_lp(n, d)
        out["lp"] = _lp(sol)
        if job["verify"] and sol.status == "optimal":
            out["lp_verified"] = bool(tb.lpbound.verify_certificate(sol).ok)
    except Exception as exc:  # a failed job is counted, not fatal
        errors.append(f"solve_distance_lp: {exc!r}")
    try:
        out["composite"] = tb.lpbound.composite_bound(n, d)
    except Exception as exc:
        errors.append(f"composite_bound: {exc!r}")
    try:
        params = tb.lpbound.mrrw_params(n, d)
        if params is not None:
            cert = tb.lpbound.mrrw_certificate(n, d, params[0], params[1])
            out["cert"] = _lp(cert)
            if job["verify"]:
                out["cert_verified"] = bool(tb.lpbound.verify_certificate(cert).ok)
    except Exception as exc:
        errors.append(f"mrrw: {exc!r}")
    return {"out": out, "errors": errors}


def run_search(job, tb) -> dict:
    """One cold clique search, paired with the composite bound."""
    n, d = job["n"], math.inf if job["d"] == "inf" else job["d"]
    size, words = tb.lpbound.max_code(n, d)
    bound = tb.lpbound.composite_bound(n, d)
    return {"out": {"size": size, "words": [list(w) for w in words], "bound": bound}}


def _generator(tb, spec):
    n, k, inner = spec
    return tb.construction.StructuredGenerator(n, k, inner)


def run_spectrum(job, tb) -> dict:
    spec = tb.construction.weight_spectrum(_generator(tb, job["generator"]))
    counts = {str(w): c for w, c in spec.counts.items()}
    counts["-1"] = spec.infinite_count
    return {"out": {"counts": counts}}


def run_simulate(job, tb) -> dict:
    if "generator" in job:
        code = tb.construction.code_from_generator(_generator(tb, job["generator"]))
    else:
        code = job["words"]
    kwargs = {"batch": job["batch"]} if job.get("batch") else {}
    res = tb.channel.monte_carlo_pe(code, job["trials"], job["seed"], **kwargs)
    return {"out": {"trials": res.trials, "errors": res.errors, "words": len(code)}}


RUNNERS = {
    "certify": run_certify,
    "search": run_search,
    "spectrum": run_spectrum,
    "simulate": run_simulate,
}


def peak_rss_mb() -> float:
    """High-water RSS of this process image, from /proc/self/status.

    getrusage's ru_maxrss is not used here: on Linux a child carries its
    parent's peak across exec, so it would report the benchmark's own
    memory whenever that is larger than the worker's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_jobs(jobs_path, results_path, spans_path) -> None:
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracer.install()
    import typewriter_bounds as tb  # its submodules are attributes

    with open(jobs_path) as fh:
        jobs = json.load(fh)
    results = []
    paces, segments, segment = [pace.ref_loop()], [], 0.0
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            res = RUNNERS[job["kind"]](job, tb)
        except Exception as exc:  # a failed job is counted, not fatal
            res = {"out": {}, "errors": [repr(exc)]}
        res["s"] = time.perf_counter() - t0
        results.append(res)
        segment += res["s"]
        if segment >= PACE_EVERY_S or i == len(jobs) - 1:
            segments.append(segment)
            paces.append(pace.ref_loop())
            segment = 0.0
    with open(results_path, "w") as fh:
        json.dump({"wall_s": sum(segments), "segments": segments, "paces": paces,
                   "peak_rss_mb": peak_rss_mb(), "jobs": results}, fh)
    if tracer:
        tracer.write_spans(spans_path)


def run_cli(spans_path, job, argv) -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = job
    from typewriter_bounds import cli

    try:
        return cli.main(argv)
    finally:
        tracer.write_spans(spans_path)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[0] == "--cli":
        sys.exit(run_cli(args[1], int(args[2]), args[4:]))
    spans = args[3] if len(args) > 3 and args[2] == "--spans" else None
    run_jobs(args[0], args[1], spans)
