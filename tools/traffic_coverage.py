"""Package lines that the benchmark's traffic never runs.

    python3 tools/traffic_coverage.py [--tree PATH]

The package is imported from PATH/src (default: this checkout), and the
tool stops if the package it imports lies anywhere else.  The benchmark's
job lists and certify and codes runners (perfbench/run.py and
perfbench/worker.py) are loaded read-only from this checkout's perfbench/.
Under a sys.settrace that follows only the package's own files, from the
package's import on, the tool runs:

  paper_cli  the eight README commands of paper_cli_jobs(1) through
             cli.main, in a temporary directory, with maxcode's stdout
             written to code.txt as the benchmark writes it;
  certify    worker.run_certify on all 315 grid pairs (n = 2..64,
             d = ceil(k n / 10), k = 1..5), with the pointwise certificate
             checks at n <= VERIFY_MAX_N;
  codes      codes_jobs of seeds 1, 2 and 3 through the worker's runners.

A line is executable when the compiled module attributes bytecode to it.
Every executable package line that none of these ran goes to stdout as
`module.py:LINE: source`, then one count per module and the total.  The
commands' own output is discarded; a command that exits nonzero or a job
that reports errors is named on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def executable_lines(path: Path) -> set[int]:
    """The lines the compiled module and every code object in it run."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def traffic(tb, run, worker) -> None:
    """The benchmark's three workloads, once each, in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for args in run.paper_cli_jobs(1):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = tb.cli.main(args)
                if args[0] == "maxcode":
                    Path("code.txt").write_text(out.getvalue())
                if rc != 0:
                    print(f"paper_cli {' '.join(args)} exited {rc}: {err.getvalue()}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    for n in range(2, 65):
        for k in range(1, 6):
            job = {"kind": "certify", "n": n, "d": -(-k * n // 10), "verify": n <= run.VERIFY_MAX_N}
            worker.run_certify(job, tb)
    for seed in (1, 2, 3):
        for job in run.codes_jobs(seed):
            result = worker.RUNNERS[job["kind"]](job, tb)
            if result.get("errors"):
                print(f"codes seed {seed} {job['kind']}: {result['errors']}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ is traced")
    args = p.parse_args(argv)

    package = args.tree.resolve() / "src" / "typewriter_bounds"
    files = {str(path): path for path in sorted(package.glob("*.py"))}
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def follow(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(package.parent))
    sys.path.insert(0, str(PERFBENCH))
    sys.settrace(follow)
    try:
        import typewriter_bounds as tb
        import typewriter_bounds.cli  # noqa: F401  (binds tb.cli)
        import run
        import worker

        if package not in Path(tb.__file__).resolve().parents:
            sys.exit(f"typewriter_bounds was imported from {tb.__file__}, not from {package.parent}")
        traffic(tb, run, worker)
    finally:
        sys.settrace(None)

    counts = {}
    for name, path in files.items():
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran[name])
        for line in missed:
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
        counts[path.name] = len(missed)
    for module, count in counts.items():
        print(f"{module}: {count} lines not run")
    print(f"total: {sum(counts.values())} lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
