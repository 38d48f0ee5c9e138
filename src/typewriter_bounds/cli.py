"""Command line front end.

Every artifact-producing subcommand stamps its output with a comment line
holding the tool version and the fully resolved parameters, and nothing
else; reruns with the same arguments are byte identical.  Usage errors exit
with 2 (argparse), computation failures with 1.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, construction, curves, expurgated, lpbound, scalars, verification
from .channel import monte_carlo_pe
from .curves import _fmt

_PLOT_SCRIPT = '''\
"""Plot the five reliability-function bounds from a curves CSV.

Usage: python plot_bounds.py [curves.csv]
"""
import csv
import sys

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "figure1.csv"
with open(path) as fh:
    rows = list(csv.reader(line for line in fh if not line.startswith("#")))
header, data = rows[0], rows[1:]
cols = {name: [float(r[i]) for r in data] for i, name in enumerate(header)}
styles = {
    "E_rex": "k-",
    "E_sl": "b--",
    "E_sl_star": "b-",
    "E_gv_star": "g-",
    "E_lp1": "r-",
}
for name in header[1:]:
    plt.plot(cols["R"], cols[name], styles.get(name, "-"), label=name)
plt.xlabel("R (bits)")
plt.ylabel("E(R)")
plt.legend()
plt.tight_layout()
plt.savefig(path.rsplit(".", 1)[0] + ".png", dpi=160)
'''


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _distance(s: str):
    if s == "inf":
        return math.inf
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"distance {s!r} is not an integer or 'inf'")
    if v < 1:
        raise argparse.ArgumentTypeError(f"distance {v} must be at least 1")
    return v


def _stamp(command: str, **params) -> str:
    parts = " ".join(f"{k}={_fmt(v)}" for k, v in params.items())
    return f"typewriter-bounds {__version__} {command} {parts}"


def _write_table(path: str, stamp: str, header, rows) -> None:
    """The stamped CSV of every table command: '# stamp', the header, then
    one line per row with each cell through _fmt."""
    lines = [f"# {stamp}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write("\n".join(lines) + "\n", path)


def _cmd_curves(args) -> int:
    rows = curves.sample_curves(args.rmin, args.rmax, args.samples)
    stamp = _stamp(args.command, rmin=args.rmin, rmax=args.rmax, samples=args.samples)
    _write_table(args.output, stamp, ("R",) + curves.CURVE_COLUMNS, rows)
    if args.plot_script:
        _write(_PLOT_SCRIPT, args.plot_script)
    return 0


def _cmd_expurgated(args) -> int:
    if not math.isfinite(args.rho_min) or not math.isfinite(args.rho_max):
        raise ValueError(f"rho window [{args.rho_min}, {args.rho_max}] is not finite")
    if args.rho_max <= args.rho_min:
        raise ValueError("need rho-max > rho-min and at least two samples")
    letters = [(a,) for a in range(5)]
    rows = [
        (
            rho,
            expurgated.ex_exponent_inf(rho),
            min(expurgated.circulant_eigenvalues(rho)),
            float(expurgated.q_form(rho, letters)),
        )
        for rho in curves._grid(args.rho_min, args.rho_max, args.samples)
    ]
    stamp = _stamp(
        "expurgated", rho_min=args.rho_min, rho_max=args.rho_max, samples=args.samples
    )
    _write_table(args.output, stamp, ("rho", "exponent_inf", "min_eigenvalue", "q_uniform"), rows)
    return 0


def _cmd_gv(args) -> int:
    if not 0.0 <= args.rmin < args.rmax < 1.0:
        raise ValueError("need 0 <= rmin < rmax < 1 and at least two samples")
    rows = [
        (e.r, e.delta_gv, e.delta_star, e.tau_star, e.exponent)
        for e in map(curves.optimize_exponent, curves._grid(args.rmin, args.rmax, args.samples))
    ]
    stamp = _stamp("gv", rmin=args.rmin, rmax=args.rmax, samples=args.samples)
    _write_table(args.output, stamp, ("r", "delta_gv", "delta_star", "tau_star", "exponent"), rows)
    return 0


def _cmd_lp(args) -> int:
    if args.mrrw:
        if args.d == math.inf:
            raise ValueError("the explicit multiplier construction needs a finite d")
        params = lpbound.mrrw_params(args.n, args.d)
        if params is None:
            print("no valid explicit multiplier; falling back to simplex", file=sys.stderr)
            sol = lpbound.solve_distance_lp(args.n, args.d)
        else:
            t, a, _ = params
            sol = lpbound.mrrw_certificate(args.n, args.d, t, a)
    else:
        sol = lpbound.solve_distance_lp(args.n, args.d)
    if sol.status not in ("optimal", "certificate"):
        raise ArithmeticError(f"distance LP failed with status {sol.status}")
    lov = lpbound.lovasz_bound(args.n)
    out = [
        f"# {_stamp('lp', n=args.n, d=args.d, mrrw=args.mrrw)}",
        f"n {args.n}",
        f"d {_fmt(args.d)}",
        f"qprime {_fmt(scalars.QPRIME)}",
        f"status {sol.status}",
        f"objective {_fmt(sol.objective)}",
        f"lovasz {_fmt(lov)}",
        f"composite {_fmt(lov * sol.objective)}",
    ]
    if args.verify:
        report = lpbound.verify_certificate(sol)
        out.append(f"verified {str(report.ok).lower()}")
        out.append(f"pointwise_bound {_fmt(report.bound)}")
    print("\n".join(out))
    if args.save:
        lpbound.save_certificate(sol, args.save)
    return 0


def _cmd_maxcode(args) -> int:
    size, words = lpbound.max_code(args.n, args.d)
    stamp = _stamp("maxcode", n=args.n, d=args.d, size=size)
    _write(construction._code_text(words, stamp), args.output)
    return 0


def _cmd_simulate(args) -> int:
    code = construction.read_code_file(args.code)
    res = monte_carlo_pe(code, args.trials, args.seed, args.batch)
    stamp = _stamp(
        "simulate",
        code=args.code,
        trials=args.trials,
        seed=args.seed,
        words=len(code),
        length=code.shape[1],
    )
    row = (res.trials, res.errors, res.estimate, res.ci95, res.seed)
    _write_table(args.output, stamp, ("trials", "errors", "estimate", "ci95", "seed"), [row])
    return 0


def _cmd_verify(args) -> int:
    names = args.suite or sorted(verification.SUITES)
    for name in names:  # every name before any suite runs
        if name not in verification.SUITES:
            raise ValueError(f"unknown suite {name!r}, have {sorted(verification.SUITES)}")
    results = []
    for name in names:
        results.extend(verification.run_suite(name))
    failures = 0
    for label, ok, detail in results:
        if ok:
            print(f"PASS {label}")
        else:
            failures += 1
            print(f"FAIL {label}: {detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="typewriter-bounds",
        description="Reliability-function bounds for the 5-ary typewriter channel",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("curves", help="sample the five bound curves as CSV")
    sp.add_argument("--rmin", type=float, default=curves.ZERO_ERROR_CAPACITY)
    sp.add_argument("--rmax", type=float, default=curves.CAPACITY)
    sp.add_argument("--samples", type=int, default=161)
    sp.add_argument("--output", default="-")
    sp.set_defaults(func=_cmd_curves, plot_script=None)

    sp = sub.add_parser("figure1", help="fixed 161-sample curve table plus plot script")
    sp.add_argument("--output", default="-")
    sp.add_argument("--plot-script", default=None, help="write a matplotlib script here")
    sp.set_defaults(
        func=_cmd_curves,
        rmin=curves.ZERO_ERROR_CAPACITY,
        rmax=curves.CAPACITY,
        samples=161,
    )

    sp = sub.add_parser("expurgated", help="expurgated-exponent quantities over rho")
    sp.add_argument("--rho-min", type=float, default=1.0)
    sp.add_argument("--rho-max", type=float, default=3.0)
    sp.add_argument("--samples", type=int, default=101)
    sp.add_argument("--output", default="-")
    sp.set_defaults(func=_cmd_expurgated)

    sp = sub.add_parser("gv", help="optimised construction exponent over inner rate")
    sp.add_argument("--rmin", type=float, default=0.0)
    sp.add_argument("--rmax", type=float, default=0.99)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--output", default="-")
    sp.set_defaults(func=_cmd_gv)

    sp = sub.add_parser("lp", help="distance LP bound and composite code bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=_distance, required=True, help="positive integer or 'inf'")
    sp.add_argument("--mrrw", action="store_true", help="use the explicit multiplier")
    sp.add_argument("--verify", action="store_true", help="recheck the certificate pointwise")
    sp.add_argument("--save", default=None, help="write the certificate to this file")
    sp.set_defaults(func=_cmd_lp)

    sp = sub.add_parser("maxcode", help="exact maximum code by branch and bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=_distance, required=True, help="positive integer or 'inf'")
    sp.add_argument("--output", default="-")
    sp.set_defaults(func=_cmd_maxcode)

    sp = sub.add_parser("simulate", help="Monte Carlo block error rate of a code file")
    sp.add_argument("--code", required=True)
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--batch", type=int, default=1 << 16,
                    help="trials per batch (default 65536): a code whose m 2^n (message, noise) "
                    "pairs fit in both the batch and the trials decodes each pair once; a batch "
                    "runs in blocks of at most 1 MiB; no error count depends on either")
    sp.add_argument("--output", default="-")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="run the numerical self-check suites")
    sp.add_argument("suite", nargs="*", help=f"subset of {sorted(verification.SUITES)}")
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
