"""Command line front end: formats, determinism, exit codes."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import typewriter_bounds
from typewriter_bounds import __version__
from typewriter_bounds.cli import main
from typewriter_bounds.construction import read_code_file
from typewriter_bounds.lpbound import load_certificate, solve_distance_lp


def test_curves_output_layout(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--samples", "5", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"# typewriter-bounds {__version__} curves ")
    assert lines[1] == "R,E_rex,E_sl,E_sl_star,E_gv_star,E_lp1"
    assert len(lines) == 2 + 5


def test_curves_stdout(capsys):
    assert main(["curves", "--samples", "3"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[1].startswith("R,")


def test_curves_rejects_bad_rates(capsys):
    assert main(["curves", "--rmin", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_figure1_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["figure1", "--output", str(a)]) == 0
    assert main(["figure1", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 2 + 161


def test_figure1_plot_script(tmp_path):
    out = tmp_path / "fig.csv"
    script = tmp_path / "plot.py"
    assert main(["figure1", "--output", str(out), "--plot-script", str(script)]) == 0
    body = script.read_text()
    assert "matplotlib" in body
    compile(body, str(script), "exec")


def test_figure1_takes_no_window_or_sample_flags():
    # figure1 is curves at fixed arguments; they are parser defaults, not flags
    for flag, value in (("--rmin", "1.2"), ("--rmax", "1.3"), ("--samples", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["figure1", flag, value])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["curves", "gv", "expurgated"])
def test_sampled_tables_need_two_samples(command, capsys):
    assert main([command, "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least two samples\n"


def test_expurgated_table(tmp_path):
    out = tmp_path / "ex.csv"
    assert main(["expurgated", "--samples", "5", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "rho,exponent_inf,min_eigenvalue,q_uniform"
    assert len(lines) == 2 + 5
    first = lines[2].split(",")
    assert float(first[0]) == 1.0


def test_expurgated_rejects_empty_window():
    assert main(["expurgated", "--rho-min", "2", "--rho-max", "1"]) == 1


@pytest.mark.parametrize("flag", ["--rho-min", "--rho-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_expurgated_rejects_a_non_finite_window(flag, value, capsys):
    assert main(["expurgated", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err and value in captured.err


def test_curves_rejects_a_nan_rate(capsys):
    assert main(["curves", "--rmin", "nan"]) == 1
    assert "error: rate nan outside" in capsys.readouterr().err


def test_gv_table(tmp_path):
    out = tmp_path / "gv.csv"
    assert main(["gv", "--samples", "4", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "r,delta_gv,delta_star,tau_star,exponent"
    assert len(lines) == 2 + 4


def test_lp_report_and_save(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    assert main(["lp", "--n", "4", "--d", "2", "--verify", "--save", str(cert)]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(" ", 1) for line in out.splitlines() if not line.startswith("#")
    )
    assert fields["status"] == "optimal"
    assert fields["verified"] == "true"
    want = solve_distance_lp(4, 2).objective
    assert float(fields["objective"]) == pytest.approx(want, rel=1e-12)
    assert float(fields["composite"]) == pytest.approx(
        float(fields["lovasz"]) * want, rel=1e-12
    )
    assert load_certificate(cert).objective == want


def test_lp_inf_distance(capsys):
    assert main(["lp", "--n", "3", "--d", "inf"]) == 0
    out = capsys.readouterr().out
    assert "d inf" in out
    assert "objective 1\n" in out


def test_lp_mrrw_multiplier(capsys):
    # the README command, pinned line by line
    assert main(["lp", "--n", "10", "--d", "3", "--mrrw", "--verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# typewriter-bounds {__version__} lp n=10 d=3 mrrw=True"
    assert lines[1:] == [
        "n 10",
        "d 3",
        "qprime 2.2360679774997898",
        "status certificate",
        "objective 806.73109046948525",
        "lovasz 3125.0000000000014",
        "composite 2521034.6577171427",
        "verified true",
        "pointwise_bound 2521034.6577171395",
    ]


def test_lp_mrrw_falls_back_to_simplex_past_the_first_root_of_k1(capsys):
    # d = 2 lies above the first root of K_1 at n = 2, 2 (1 - 1/sqrt 5) = 1.106,
    # so no degree gives a multiplier and the simplex answers
    assert main(["lp", "--n", "2", "--d", "2", "--mrrw", "--verify"]) == 0
    captured = capsys.readouterr()
    assert "no valid explicit multiplier; falling back to simplex" in captured.err
    lines = captured.out.splitlines()
    for line in ("status optimal", "composite 11.180339887498951", "verified true"):
        assert line in lines


def test_lp_refuses_a_simplex_answer_that_breaks_lambda_le_0(capsys):
    # the one pair with n <= 64 whose simplex answer breaks Lambda <= 0 past
    # d by more than rounding (see test_lpbound.py)
    assert main(["lp", "--n", "58", "--d", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: simplex solution violates Lambda <= 0 by 6.630e-04" in captured.err


def test_lp_verify_refuses_lengths_beyond_the_size_guard(capsys):
    assert main(["lp", "--n", "15", "--d", "3", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: 3^n = 14348907 exceeds guard 10000000" in captured.err


def test_lp_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["lp", "--n", "2", "--d", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lp", "--n", "2", "--d", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lp", "--n", "2"])
    assert exc.value.code == 2


def test_maxcode_stdout(capsys):
    assert main(["maxcode", "--n", "2", "--d", "inf"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"# typewriter-bounds {__version__} maxcode ")
    assert "size=5" in lines[0]
    assert lines[1:] == ["00", "12", "24", "31", "43"]


def test_maxcode_rejects_a_zero_length(capsys):
    assert main(["maxcode", "--n", "0", "--d", "1"]) == 1
    err = capsys.readouterr().err
    assert "need n >= 1" in err and "500" not in err


def test_maxcode_file_roundtrip(tmp_path):
    out = tmp_path / "code.txt"
    assert main(["maxcode", "--n", "2", "--d", "2", "--output", str(out)]) == 0
    code = read_code_file(out)
    assert code.shape == (10, 2)


def test_simulate_is_deterministic(tmp_path):
    codefile = tmp_path / "pair.txt"
    codefile.write_text("000\n110\n")
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        rc = main(
            [
                "simulate",
                "--code",
                str(codefile),
                "--trials",
                "2000",
                "--seed",
                "9",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[1] == "trials,errors,estimate,ci95,seed"
    trials, errors, estimate, _, seed = lines[2].split(",")
    assert (int(trials), int(seed)) == (2000, 9)
    assert abs(float(estimate) - 0.125) <= 0.05


def test_simulate_missing_code_file(tmp_path, capsys):
    assert main(["simulate", "--code", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_an_empty_code_file(tmp_path, capsys):
    codefile = tmp_path / "empty.txt"
    codefile.write_text("# no words\n")
    assert main(["simulate", "--code", str(codefile)]) == 1
    assert "error: empty code file" in capsys.readouterr().err


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    codefile = tmp_path / "pair.txt"
    codefile.write_text("000\n110\n")
    assert main(["simulate", "--code", str(codefile), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed -1 is outside [0, 2^128)\n"


def _fresh_interpreter(args, cwd):
    """Run python with args in a new process that imports ./src first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )


def test_simulate_rejects_a_zero_batch(tmp_path):
    # a fresh process with a timeout, so a batch loop that never advances
    # fails the test instead of stalling the suite
    codefile = tmp_path / "pair.txt"
    codefile.write_text("000\n110\n")
    proc = _fresh_interpreter(
        ["-m", "typewriter_bounds.cli", "simulate", "--code", str(codefile), "--batch", "0"],
        tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "batch" in proc.stderr


def test_readme_lp_command_peak_memory(tmp_path):
    # the command in a fresh interpreter; it peaked at 362 MB while f_hat was
    # evaluated at all 5^10 words.  The child reads its own high-water mark
    # VmHWM: on Linux its ru_maxrss starts from this test process's peak at
    # exec, which a long test run pushes past the cap by itself
    script = (
        "from typewriter_bounds.cli import main\n"
        "code = main(['lp', '--n', '10', '--d', '3', '--mrrw', '--verify', '--save', 'cert.txt'])\n"
        "hwm = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(code, hwm[0].split()[1])\n"
    )
    proc = _fresh_interpreter(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "verified true" in lines
    code, hwm_kib = lines[-1].split()
    assert code == "0"
    assert int(hwm_kib) / 1024 < 100


def test_verify_all_suites_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_single_suite(capsys):
    assert main(["verify", "scalars"]) == 0
    out = capsys.readouterr().out
    assert all(line.startswith("PASS scalars/") for line in out.splitlines()[:-1])


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuchsuite"]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(monkeypatch, name):
    """A benchmark module, loaded read-only with perfbench/ on the path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_commands_match_the_benchmark_goldens(tmp_path, monkeypatch, capsys):
    # the benchmark's own argument lists, loaded read-only
    run = _perfbench_module(monkeypatch, "run")
    seed = 0
    jobs = run.paper_cli_jobs(seed)
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())["paper_cli"]
    assert sorted(args[0] for args in jobs) == sorted(goldens)
    monkeypatch.chdir(tmp_path)
    for args in jobs:
        sub = args[0]
        golden = goldens[sub]
        assert main(args) == 0, sub
        out = capsys.readouterr().out.encode()
        if sub == "maxcode":
            (tmp_path / "code.txt").write_bytes(out)
        if "stdout_template" in golden:
            assert out == golden["stdout_template"].replace("{seed}", str(seed)).encode(), sub
        else:
            assert hashlib.sha256(out).hexdigest() == golden["stdout"], sub
        for name, digest in golden.get("files", {}).items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_codes_jobs_run_without_raising_and_match_the_benchmark_checks(monkeypatch):
    # the benchmark counts a job that raises as failed, so every codes job of
    # seeds 1-10 runs through the worker's own runners, in process; the
    # brute-force spectrum costs 0.3 s a job, so only seed 1's three shapes
    # are checked against it
    run = _perfbench_module(monkeypatch, "run")
    worker = _perfbench_module(monkeypatch, "worker")
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())["max_code"]
    for seed in range(1, 11):
        for job in run.codes_jobs(seed):
            out = worker.RUNNERS[job["kind"]](job, typewriter_bounds)["out"]
            if job["kind"] == "search":
                golden = goldens[f"{job['n']},{job['d']}"]
                assert (out["size"], out["words"]) == (golden["size"], golden["words"]), (seed, job)
            elif job["kind"] == "spectrum" and seed == 1:
                counts = {int(w): c for w, c in out["counts"].items() if c}
                assert counts == run.checks.reference_spectrum(job["generator"][2]), (seed, job)
