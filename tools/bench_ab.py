"""A/B runs of the benchmark: a parent revision against this checkout.

    python3 tools/bench_ab.py --parent HEAD~1 --out BENCH.json

The parent revision's committed files are unpacked by `git archive` into a
temporary directory (under --tmp when given), which is removed on exit.  For each
workload of BENCHMARK.json and each seed 1..10 the two trees run their own
`perfbench/run.py --workload W --seed S --seconds T --trace 0`, with T the
run_seconds of BENCHMARK.json, one after the other: odd seeds run the
parent first and even seeds this checkout first.  Nothing under perfbench/
is edited; run.py writes its scratch files under each tree's .bench_work/.

The output file holds, per workload and side, the median, quartiles and
IQR of each end-to-end metric of BENCHMARK.json over the seeds, and per seed and
side the passes, attempted and failed counts, failed per pass, and each
failure reason with the number of times a pass gave it (two jobs that fail
with the same reason count 2).  A reason that one side gives and the other
does not, at any seed, is listed under one_side_failures.  The failure
share, sum of failed over sum of attempted, is given per workload and side
and pooled over all workloads, with a flag where the change's share is above
the parent's.  A summary goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
SECONDS = BENCHMARK["run_seconds"]
SEEDS = range(1, 11)


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run.py run in tree: its report line and final line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{argv} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report, final = json.loads(lines[-2]), json.loads(lines[-1])
    reasons = Counter(report["failures"])
    env = dict(report["environment"])
    return {
        "metrics": {key: final["metrics"][key]["value"] for key in METRICS},
        "correct": final["correct"],
        "passes": report["passes"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "failed_per_pass": final["failed"] / report["passes"],
        # full failure reason -> times a pass gave it; a whole number for
        # every reason when each pass fails the same set
        "failed_jobs": {reason: count / report["passes"] for reason, count in sorted(reasons.items())},
        "wrong_outputs": report.get("wrong_outputs", []),
        "git_commit": env.pop("git_commit"),
        "environment": env,
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def failure_share(runs: list[dict], side: str) -> dict:
    failed = sum(run[side]["failed"] for run in runs)
    attempted = sum(run[side]["attempted"] for run in runs)
    return {"failed": failed, "attempted": attempted, "share": failed / attempted}


def compare(runs: list[dict]) -> dict:
    sides = {side: {key: spread([run[side]["metrics"][key] for run in runs]) for key in METRICS}
             for side in ("parent", "change")}
    one_side = []
    for run in runs:
        parent, change = (set(run[side]["failed_jobs"]) for side in ("parent", "change"))
        one_side += [{"seed": run["seed"], "job": job, "side": side}
                     for side, jobs in (("parent", parent - change), ("change", change - parent))
                     for job in sorted(jobs)]
    wins = sum(run["change"]["metrics"]["wall_s"] < run["parent"]["metrics"]["wall_s"] for run in runs)
    same = [run["seed"] for run in runs if run["parent"]["failed_jobs"] == run["change"]["failed_jobs"]]
    return {"sides": sides, "wall_s_pairs_won_by_change": wins, "pairs": len(runs),
            "failure_share": {side: failure_share(runs, side) for side in ("parent", "change")},
            "seeds_with_equal_failures_per_pass": same,
            "one_side_failures": one_side, "runs": runs}


def share_line(label: str, shares: dict) -> str:
    p, c = shares["parent"], shares["change"]
    flag = "  FLAG: change share above parent" if c["share"] > p["share"] else ""
    return (f"  {label} failure share: parent {p['failed']}/{p['attempted']} = {p['share']:.4f}, "
            f"change {c['failed']}/{c['attempted']} = {c['share']:.4f}{flag}")


def summary(workload: str, result: dict) -> list[str]:
    lines = [f"{workload}: change wins wall_s in {result['wall_s_pairs_won_by_change']} of {result['pairs']} pairs"]
    for key in METRICS:
        p, c = (result["sides"][side][key] for side in ("parent", "change"))
        lines.append(f"  {key}: parent {p['median']:.4g} (IQR {p['iqr']:.3g}), change {c['median']:.4g} "
                     f"(IQR {c['iqr']:.3g}), change/parent {c['median'] / p['median']:.3f}")
    for side in ("parent", "change"):
        counts = [(run[side]["failed"], run[side]["attempted"], run[side]["passes"]) for run in result["runs"]]
        correct = all(run[side]["correct"] for run in result["runs"])
        lines.append(f"  {side}: correct {correct}; failed/attempted/passes per seed "
                     + " ".join(f"{f}/{a}/{p}" for f, a, p in counts))
    lines.append(share_line(workload, result["failure_share"]))
    lines.append(f"  seeds where both sides fail the same reasons per pass: "
                 f"{len(result['seeds_with_equal_failures_per_pass'])} of {result['pairs']}")
    lines.append(f"  failures on one side only: {len(result['one_side_failures'])}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare this checkout against")
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--tmp", type=Path, default=None, help="directory for the parent's files")
    args = p.parse_args(argv)

    parent_commit = git("rev-parse", args.parent)
    record = {
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "order": "odd seeds run the parent first, even seeds the change first",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the seeds",
        "environment": {},
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench_ab_", dir=args.tmp))
    parent_tree = tmp / "parent"
    try:
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in WORKLOADS:
            runs = []
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                run = {"seed": seed, "order": list(order)}
                for side in order:
                    run[side] = run_bench(trees[side], workload, seed)
                    record["environment"][side] = run[side].pop("environment")
                    print(f"{workload} seed {seed} {side}: wall_s {run[side]['metrics']['wall_s']:.4f} "
                          f"failed {run[side]['failed']}/{run[side]['attempted']}", file=sys.stderr)
                runs.append(run)
            record["workloads"][workload] = compare(runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    results = record["workloads"].values()
    record["pooled_failure_share"] = {
        side: failure_share([run for result in results for run in result["runs"]], side)
        for side in ("parent", "change")}
    lines = [line for name, result in record["workloads"].items() for line in summary(name, result)]
    lines.append(share_line("pooled", record["pooled_failure_share"]).strip())
    record["summary"] = lines
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
