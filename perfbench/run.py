"""Benchmark for typewriter-bounds: three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
NAME is one of paper_cli, certify, codes, or all (each workload untraced,
then traced, with the tracing overhead).  Each workload is a closed loop
with one caller: jobs run one at a time, and the fixed job list drawn from
the seed is repeated while another pass still fits in S seconds (at least
once; a traced run makes one pass).  Every job's output is checked after the timed region.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and
the per-layer metrics with --trace 1.  Gated times are in reference
seconds, scaled by the pace of a fixed loop timed between jobs (pace.py).  The line before it is a JSON report
with every end-to-end metric by name and unit, the failures by reason, the
environment, and (traced) the comparison with the ROADMAP baseline figures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import pace
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = json.loads((BENCH / "goldens.json").read_text())

SETUP_PROBES = 9
SETUP_STATEMENT = "import typewriter_bounds.cli"

# gated in BENCHMARK.json, wall_s and setup_s in reference seconds (pace.py);
# the report adds the measured seconds, job_p50_s, job_tail_s, failed_frac,
# grid_failed_share and mc_trials_per_s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# --------------------------------------------------------------------------
# workloads: job lists drawn from the seed


def paper_cli_jobs(seed: int) -> list[list[str]]:
    """The README's eight subcommands at the README's arguments."""
    return [
        ["curves", "--samples", "41"],
        ["figure1", "--output", "figure1.csv", "--plot-script", "plot_bounds.py"],
        ["expurgated", "--rho-min", "1", "--rho-max", "3", "--samples", "101"],
        ["gv", "--samples", "100"],
        ["lp", "--n", "10", "--d", "3", "--mrrw", "--verify", "--save", "cert.txt"],
        ["maxcode", "--n", "2", "--d", "inf"],
        ["simulate", "--code", "code.txt", "--trials", "1000000", "--seed", str(seed)],
        ["verify"],
    ]


# The ROADMAP item-3 grid is n = 2..64, d = ceil(k n / 10), k = 1..5: 315
# pairs.  Strata (lowest n, highest n, draws) partition it by length.  Below
# n = 32 each stratum is five lengths wide and draws one job per k, with n
# uniform in the stratum.  From n = 32 a job costs 0.4 to 7 s, growing with
# n and k, so each stratum is ten or eleven lengths wide and draws a mirrored
# pair: (n, k) with n uniform and k from a rotation the seed picks, and
# (lo + hi - n, 6 - k).  Each draw is still uniform over the stratum, and a
# cheap job is paired with a dear one, so every seed costs about the same.
# Every length band of the failing region n >= 22 is drawn from in every run;
# grid_failed_share weights each job by the grid pairs its stratum stands
# for, to estimate the share of the whole grid that fails.
CERTIFY_STRATA = [(lo, lo + 4, 5) for lo in range(2, 32, 5)] + [
    (32, 43, 2),
    (44, 53, 2),
    (54, 64, 2),
]
VERIFY_MAX_N = 6  # pointwise certificate checks cost 5^n


def certify_jobs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    rotation = int(rng.integers(5))
    jobs = []
    for s, (lo, hi, draws) in enumerate(CERTIFY_STRATA):
        if draws == 5:
            pairs = [(int(rng.integers(lo, hi + 1)), k) for k in range(1, 6)]
        else:
            n, k = int(rng.integers(lo, hi + 1)), (s + rotation) % 5 + 1
            pairs = [(n, k), (lo + hi - n, 6 - k)][:draws]
        for n, k in pairs:
            jobs.append({"kind": "certify", "n": n, "d": -(-k * n // 10), "stratum": s,
                         "verify": n <= VERIFY_MAX_N})
    return jobs


def grid_failed_share(jobs: list[dict], failed: set[int]) -> float:
    """Stratified estimate of the share of the 315 grid pairs that fail."""
    total = 0.0
    for s, (lo, hi, draws) in enumerate(CERTIFY_STRATA):
        mine = [i for i, job in enumerate(jobs) if job["stratum"] == s]
        total += 5 * (hi - lo + 1) * sum(i in failed for i in mine) / draws
    return total / (5 * 63)


CRITERION_10_INNER = [[1, 2]]


def codes_jobs(seed: int) -> list[dict]:
    """Cold n = 3 searches, exact spectra, and Monte Carlo runs."""
    rng = np.random.default_rng([seed, 2])

    def inner(n, k):
        return rng.integers(0, 5, size=(k, n)).tolist()

    jobs = [
        {"kind": "search", "n": 3, "d": 2},
        {"kind": "search", "n": 3, "d": "inf"},
    ]
    for n, k in ((7, 2), (6, 3), (5, 4)):
        jobs.append({"kind": "spectrum", "generator": [n, k, inner(n, k)]})
    mc_seeds = rng.integers(0, 2**32, size=3).tolist()
    jobs += [
        # the criterion-10 code: 125 words of length 4, one full default batch
        {"kind": "simulate", "generator": [2, 1, CRITERION_10_INNER], "trials": 1 << 16,
         "seed": mc_seeds[0]},
        {"kind": "simulate", "generator": [2, 1, inner(2, 1)], "trials": 1 << 15,
         "seed": mc_seeds[1]},
        # 256 random words of length 10: a 5^10 x 256 table is out of reach
        {"kind": "simulate", "words": rng.integers(0, 5, size=(256, 10)).tolist(),
         "trials": 10_000, "seed": mc_seeds[2], "batch": 2048},
    ]
    return jobs


# --------------------------------------------------------------------------
# running


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh interpreter to package imported, SETUP_PROBES times after a warm-up.

    Returns the import times and the reference-loop paces timed between them.
    """
    argv = [sys.executable, "-c", SETUP_STATEMENT]
    subprocess.run(argv, env=child_env(), check=True, cwd=ROOT)
    times, paces = [], [pace.ref_loop()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        paces.append(pace.ref_loop())
    return times, paces


def fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def run_paper_cli_pass(seed: int, workdir: Path, traced: bool) -> dict:
    fresh_dir(workdir)
    jobs, paces = [], [pace.ref_loop()]
    for i, args in enumerate(paper_cli_jobs(seed)):
        if traced:
            argv = [sys.executable, str(BENCH / "worker.py"), "--cli", f"spans-{i}.json", str(i), "--", *args]
        else:
            argv = [sys.executable, "-m", "typewriter_bounds.cli", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=workdir, env=child_env(), capture_output=True)
        dt = time.perf_counter() - t0
        if args[0] == "maxcode":
            (workdir / "code.txt").write_bytes(proc.stdout)
        jobs.append({"args": args, "s": dt, "rc": proc.returncode, "stdout": proc.stdout,
                     "stderr": proc.stderr.decode(errors="replace")[-500:]})
        paces.append(pace.ref_loop())
    segments = [job["s"] for job in jobs]
    return {"wall_s": sum(segments), "segments": segments, "paces": paces, "jobs": jobs,
            "workdir": workdir}


def run_worker_pass(jobs: list[dict], workdir: Path, traced: bool) -> dict:
    fresh_dir(workdir)
    (workdir / "jobs.json").write_text(json.dumps(jobs))
    argv = [sys.executable, str(BENCH / "worker.py"), "jobs.json", "results.json"]
    if traced:
        argv += ["--spans", "spans.json"]
    subprocess.run(argv, cwd=workdir, env=child_env(), check=True)
    results = json.loads((workdir / "results.json").read_text())
    results["workdir"] = workdir
    return results


# --------------------------------------------------------------------------
# checking: each returns the failed jobs as (index, reason), the reasons that
# are wrong outputs rather than failures the package reported, and notes


def check_paper_cli(seed: int, run: dict):
    failures, wrong = [], []
    for i, job in enumerate(run["jobs"]):
        sub = job["args"][0]
        golden = GOLDENS["paper_cli"][sub]
        if job["rc"] != 0:
            failures.append((i, f"{sub}: exit {job['rc']}: {job['stderr']}"))
            continue
        if "stdout_template" in golden:
            ok = job["stdout"] == golden["stdout_template"].replace("{seed}", str(seed)).encode()
        else:
            ok = checks.sha256(job["stdout"]) == golden["stdout"]
        reason = None if ok else f"{sub}: stdout differs from golden"
        for name, digest in golden.get("files", {}).items():
            path = run["workdir"] / name
            if not path.exists() or checks.sha256(path.read_bytes()) != digest:
                reason = f"{sub}: {name} differs from golden"
        if reason:
            failures.append((i, reason))
            wrong.append(reason)
    return failures, wrong, {}


def check_certify(jobs, run):
    """Failures, wrong outputs, and notes: LP statuses and objective drift.

    A status other than optimal is a failure the package reported; the note
    says how many of those LPs HiGHS solves.  A wrong output states
    something false: a multiplier that is not feasible, an objective off
    the HiGHS optimum (or, for a certificate, below it), a composite bound
    that is not Lovasz x Lambda(0).  A certificate that does not prove its
    objective is a failed job, as a certificate that does not verify is:
    drift, the signed relative gap between a reported objective and the
    exact Lambda(0) of its multipliers, below -OBJECTIVE_TOL means the
    multipliers prove only a larger bound, though the objective stated,
    being at least the HiGHS optimum, is still a true bound.  Drift above
    +1e-6 is only a note.
    """
    failures, wrong = [], []
    notes = {"lp_statuses": {}, "failed_lp_solved_by_highs": 0, "objective_drift_over_1e-6": [],
             "objective_drift_below_-1e-6": []}
    for i, (job, res) in enumerate(zip(jobs, run["jobs"])):
        n, d = job["n"], job["d"]
        out = res["out"]
        reasons = [f"exception {e}" for e in res.get("errors", [])]
        for key, want_status in (("lp", "optimal"), ("cert", "certificate")):
            if key not in out:
                continue
            lp = out[key]
            if key == "lp":
                notes["lp_statuses"][lp["status"]] = notes["lp_statuses"].get(lp["status"], 0) + 1
            if lp["status"] != want_status:
                reasons.append(f"{key} status {lp['status']}")
                if checks.highs_objective(n, d) is not None:
                    notes["failed_lp_solved_by_highs"] += 1
                continue
            reason = checks.check_multiplier(n, d, lp["lam"], lp["objective"], key == "lp")
            if reason:
                reasons.append(f"{key} {reason}")
                wrong.append(f"({n}, {d}) {key} {reason}")
                continue
            drift = checks.objective_drift(n, lp["lam"], lp["objective"])
            if drift < -checks.OBJECTIVE_TOL:
                reasons.append(f"{key} objective {drift:.2e} below the exact Lambda(0) of its multipliers")
                notes["objective_drift_below_-1e-6"].append([n, d, key, drift])
            elif drift > 1e-6:
                notes["objective_drift_over_1e-6"].append([n, d, key, drift])
        if out.get("lp", {}).get("status") == "optimal" and "composite" in out:
            want = checks.lovasz(n) * out["lp"]["objective"]
            if abs(out["composite"] - want) > 1e-9 * want:
                reasons.append("composite bound != lovasz * Lambda(0)")
                wrong.append(f"({n}, {d}) composite {out['composite']!r} != {want!r}")
        for key in ("lp_verified", "cert_verified"):
            if out.get(key) is False:
                reasons.append(f"{key[:-9]} certificate does not verify")
        if reasons:
            failures.append((i, f"({n}, {d}): " + "; ".join(reasons)))
    return failures, wrong, notes


def check_codes(jobs, run):
    failures, wrong = [], []
    for i, (job, res) in enumerate(zip(jobs, run["jobs"])):
        out, kind = res["out"], job["kind"]
        if res.get("errors"):
            failures.append((i, f"{kind}: exception {res['errors']}"))
            continue
        reason = None
        if kind == "search":
            d = checks.INF if job["d"] == "inf" else job["d"]
            golden = GOLDENS["max_code"][f"{job['n']},{job['d']}"]
            reason = checks.check_code(out["words"], job["n"], d, golden["words"])
            if out["size"] != golden["size"] or out["size"] != len(out["words"]):
                reason = f"size {out['size']} != golden {golden['size']}"
            elif out["bound"] < out["size"] * (1.0 - 1e-9):
                reason = f"composite bound {out['bound']!r} < max code size {out['size']}"
        elif kind == "spectrum":
            want = checks.reference_spectrum(job["generator"][2])
            if {int(w): c for w, c in out["counts"].items() if c} != want:
                reason = "weight spectrum differs from brute force"
        elif kind == "simulate":
            code = job.get("words")
            if code is None:
                n, k, inner = job["generator"]
                code = checks.structured_code(n, k, inner)
            want = checks.reference_errors(code, job["trials"], job["seed"])
            if out["errors"] != want or out["trials"] != job["trials"]:
                reason = f"{out['errors']} errors, reference decoder gives {want}"
        if reason:
            failures.append((i, f"{kind} {i}: {reason}"))
            wrong.append(f"{kind} {i}: {reason}")
    return failures, wrong, {}


# --------------------------------------------------------------------------
# environment and reporting


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    init = (SRC / "typewriter_bounds" / "__init__.py").read_text()
    version = re.search(r'__version__ = "([^"]+)"', init)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "package_version": version.group(1) if version else "unknown",
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail(times: list[float]):
    """Highest percentile with at least ten jobs beyond it, if at or above p50."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 11], "unit": "s", "percentile": round(100.0 * (n - 10) / n, 2),
            "jobs": n, "jobs_beyond": 10}


BASELINE = {
    "max_code(3, 2)": 34.0,
    "max_code(3, inf)": 27.0,
    "monte_carlo_pe s per 1e6 trials, 125-word code": 14.4,
    "mrrw_params(64, 20)": 4.9,
}


def baseline_comparison(workload, jobs, spans) -> list[dict]:
    """Traced layer times against the ROADMAP Baseline figures.

    'reproduces' means within 25 percent of the ROADMAP figure.  Traced
    times include the tracing overhead of the spans nested inside.
    """
    found = {}
    for name, start, end, _parent, job in spans:
        spec = jobs[job] if 0 <= job < len(jobs) else {}
        if name == "lpbound.max_code" and spec.get("kind") == "search":
            found[f"max_code(3, {spec['d']})"] = end - start
        elif name == "channel.monte_carlo_pe" and spec.get("generator", [0, 0, None])[2] == CRITERION_10_INNER:
            found["monte_carlo_pe s per 1e6 trials, 125-word code"] = (end - start) * 1e6 / spec["trials"]
        elif name == "lpbound.mrrw_params" and (spec.get("n"), spec.get("d")) == (64, 20):
            found["mrrw_params(64, 20)"] = end - start
    out = []
    for key, roadmap in BASELINE.items():
        if key in found:
            ratio = found[key] / roadmap
            verdict = "reproduces" if 0.75 <= ratio <= 1.25 else "contradicts"
            out.append({"figure": key, "roadmap_s": roadmap, "traced_s": found[key], "ratio": ratio,
                        "verdict": verdict})
        elif workload == ("certify" if key.startswith("mrrw") else "codes"):
            out.append({"figure": key, "roadmap_s": roadmap, "verdict": "not in this seed's sample"})
    return out


def merge_notes(total: dict, new: dict) -> None:
    """Add one pass's notes to the totals: counts add up, lists extend."""
    for key, value in new.items():
        if isinstance(value, dict):
            merge_notes(total.setdefault(key, {}), value)
        elif isinstance(value, list):
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; return (final-line object, report)."""
    setup, setup_paces = measure_setup()
    workdir = WORK / name
    jobs = None if name == "paper_cli" else (certify_jobs if name == "certify" else codes_jobs)(seed)
    check = {"paper_cli": lambda run: check_paper_cli(seed, run),
             "certify": lambda run: check_certify(jobs, run),
             "codes": lambda run: check_codes(jobs, run)}[name]
    passes, failures, wrong, notes, failed_per_pass = [], [], [], {}, []
    start = time.perf_counter()
    while True:
        if name == "paper_cli":
            run = run_paper_cli_pass(seed, workdir, traced)
        else:
            run = run_worker_pass(jobs, workdir, traced)
        passes.append(run)
        # checks run between passes, outside the timed region
        f, w, pass_notes = check(run)
        failures += f
        wrong += w
        merge_notes(notes, pass_notes)
        failed_per_pass.append({i for i, _ in f})
        # stop before a pass that would end past the budget, so the pass
        # count does not flip between runs of the same length
        elapsed = time.perf_counter() - start
        if traced or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    per_pass = len(passes[0]["jobs"])
    attempted = per_pass * len(passes)
    job_times = [j["s"] for run in passes for j in run["jobs"]]

    if name == "paper_cli":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        sims = [(int(j["args"][j["args"].index("--trials") + 1]), j["s"])
                for run in passes for j in run["jobs"] if j["args"][0] == "simulate"]
    else:
        peak = max(run["peak_rss_mb"] for run in passes)
        sims = [(job["trials"], res["s"]) for run in passes for job, res in zip(jobs, run["jobs"])
                if job["kind"] == "simulate"]

    e2e = {
        "wall_s": statistics.median(pace.reference_seconds(run["segments"], run["paces"]) for run in passes),
        "setup_s": statistics.median(setup) * pace.REF_S / statistics.median(setup_paces),
        "peak_rss_mb": peak,
    }
    report = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "passes": len(passes),
        "pass_wall_s": [run["wall_s"] for run in passes],
        "jobs_per_pass": per_pass,
        "metrics": {key: {"value": value, "unit": END_TO_END[key]} for key, value in e2e.items()},
        "measured": {
            "wall_s": statistics.median(run["wall_s"] for run in passes),
            "ref_loop_s": statistics.median(p for run in passes for p in run["paces"]),
            "setup_s": statistics.median(setup),
            "setup_ref_loop_s": statistics.median(setup_paces),
        },
        "failures": [reason for _, reason in failures],
        "environment": environment(),
    }
    report["metrics"]["job_p50_s"] = {"value": statistics.median(job_times), "unit": "s", "jobs": attempted}
    report["metrics"]["job_tail_s"] = tail(job_times) or {
        "value": None, "unit": "s", "note": f"{attempted} jobs; needs 20 for a tail at or above p50"}
    report["metrics"]["failed_frac"] = {"value": len(failures) / attempted, "unit": "ratio",
                                        "failed": len(failures), "attempted": attempted}
    if name == "certify":
        report["metrics"]["grid_failed_share"] = {
            "value": statistics.mean(grid_failed_share(jobs, f) for f in failed_per_pass), "unit": "ratio",
            "note": "stratified estimate over the 315 grid pairs"}
    if sims:
        report["metrics"]["mc_trials_per_s"] = {
            "value": sum(t for t, _ in sims) / sum(s for _, s in sims), "unit": "trials/s"}
    report.update(notes)
    if wrong:
        report["wrong_outputs"] = wrong

    if traced:
        span_sets, counts, cli_seconds = [], {}, {}
        for path in sorted(workdir.glob("spans*.json")):
            spans, c = tracing.read_spans(path)
            span_sets.append(spans)
            for key, value in c.items():
                counts[key] = counts.get(key, 0) + value
        if name == "paper_cli":
            cli_seconds = {j["args"][0]: j["s"] for j in passes[0]["jobs"]}
        metrics = tracing.summarize(span_sets, counts, cli_seconds)
        units = dict(tracing.per_layer_names())
        final_metrics = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
        if jobs is not None:
            report["baseline"] = baseline_comparison(name, jobs, [s for spans in span_sets for s in spans])
    else:
        final_metrics = {key: {"value": value, "unit": END_TO_END[key]} for key, value in e2e.items()}

    final = {"correct": not wrong, "attempted": attempted, "failed": len(failures), "metrics": final_metrics}
    return final, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["paper_cli", "certify", "codes", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "typewriter_bounds" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        final, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report))
        print(json.dumps(final))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("paper_cli", "certify", "codes"):
        plain, report = run_workload(name, args.seed, args.seconds, False)
        print(json.dumps(report))
        traced, traced_report = run_workload(name, args.seed, args.seconds, True)
        traced_wall = traced_report["metrics"]["wall_s"]["value"]
        traced_report["tracing_overhead_s"] = traced_wall - report["metrics"]["wall_s"]["value"]
        traced_report["per_layer"] = traced["metrics"]
        print(json.dumps(traced_report))
        for result in (plain, traced):
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
        for key, metric in report["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
        summary["metrics"][f"{name}.tracing_overhead_s"] = {
            "value": traced_report["tracing_overhead_s"], "unit": "s"}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
