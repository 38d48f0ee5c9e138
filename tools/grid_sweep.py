"""Every distance-LP and MRRW result on the n = 2..64 grid, bit for bit.

    python3 tools/grid_sweep.py > sweep.jsonl

The grid is n = 2..64 with d = ceil(k n / 10), k = 1..5: 315 (n, d) pairs.
For each pair one JSON line holds the LP status, multipliers and objective,
the composite bound (null where the LP is not optimal), the MRRW parameters
(t, a, objective) and that certificate's multipliers and values (null where
no degree works).  Every float is written by float.hex(), so two sweeps
agree line for line exactly when every result is bit-identical; compare
them with diff.  The LP status counts and the elapsed seconds go to
stderr.  The package is imported from the src directory beside this
script.
"""

from __future__ import annotations

import collections
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from typewriter_bounds.lpbound import (  # noqa: E402
    composite_bound,
    mrrw_certificate,
    mrrw_params,
    solve_distance_lp,
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def sweep_pair(n: int, d: int) -> dict:
    sol = solve_distance_lp(n, d)
    record = {
        "n": n,
        "d": d,
        "status": sol.status,
        "lam": _hex(sol.lam),
        "objective": sol.objective.hex(),
        "composite": composite_bound(n, d).hex() if sol.status == "optimal" else None,
        "mrrw": None,
        "certificate": None,
    }
    params = mrrw_params(n, d)
    if params is not None:
        t, a, objective = params
        cert = mrrw_certificate(n, d, t, a)
        record["mrrw"] = [t, a.hex(), objective.hex()]
        record["certificate"] = {"lam": _hex(cert.lam), "Lambda": _hex(cert.Lambda)}
    return record


def main() -> None:
    start = time.perf_counter()
    counts = collections.Counter()
    for n in range(2, 65):
        for k in range(1, 6):
            record = sweep_pair(n, -(-k * n // 10))
            counts[record["status"]] += 1
            print(json.dumps(record), flush=True)
    for status, count in sorted(counts.items()):
        print(f"{status}: {count}", file=sys.stderr)
    print(f"elapsed: {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
