"""Distance LP, explicit multiplier certificates, and exact small codes."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typewriter_bounds import lpbound
from typewriter_bounds.fourier import dft, idft, lovasz_assignment, lovasz_bound, symbol_count
from typewriter_bounds.lpbound import (
    _CUBE,
    _apply_axes,
    _cube_certificate,
    _kraw_table,
    _max_clique_with_zero,
    certificate_function,
    composite_bound,
    first_root,
    load_certificate,
    max_code,
    mrrw_certificate,
    mrrw_params,
    save_certificate,
    solve_distance_lp,
    verify_certificate,
)
from typewriter_bounds.scalars import INF, QPRIME, krawtchouk, word_distance


def test_qprime_is_sqrt5_to_rounding():
    assert abs(QPRIME - math.sqrt(5.0)) <= 1e-12


def test_one_letter_lp():
    sol = solve_distance_lp(1, 1)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(math.sqrt(5.0), abs=1e-9)
    assert sol.lam[0] == 1.0


def test_distance_one_lp_is_the_full_space():
    for n in (2, 3):
        sol = solve_distance_lp(n, 1)
        assert sol.objective == pytest.approx(QPRIME**n, rel=1e-9)


def test_trivial_lp_without_constraints():
    sol = solve_distance_lp(2, INF)
    assert sol.status == "optimal"
    assert sol.objective == 1.0
    assert sol.lam == (1.0, 0.0, 0.0)
    assert sol.d == INF
    # d beyond the maximum finite distance collapses to the same instance
    assert solve_distance_lp(2, 5).d == INF


def test_distance_validation():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            solve_distance_lp(2, bad)
    with pytest.raises(ValueError):
        max_code(2, 0)


@pytest.mark.parametrize("function", [max_code, solve_distance_lp, composite_bound])
def test_non_finite_distances_are_refused_by_name(function):
    # NaN and -inf fail the range check before int() sees them, so neither
    # raises "cannot convert float NaN to integer" or OverflowError
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"^distance {bad} must be a positive integer or inf$"):
            function(2, bad)


def test_lp_solution_is_feasible():
    sol = solve_distance_lp(8, 3)
    lam = np.array(sol.lam)
    values = np.array(sol.Lambda)
    assert lam[0] == 1.0
    assert lam.min() >= -1e-12
    assert values[3:].max() <= 1e-7 * max(1.0, values[0])
    assert sol.objective == pytest.approx(values[0], abs=0)


def test_frozen_lp_objectives():
    assert solve_distance_lp(10, 3).objective == pytest.approx(224.9637913626235, rel=1e-9)
    assert solve_distance_lp(20, 6).objective == pytest.approx(12810.745591633759, rel=1e-9)
    assert solve_distance_lp(40, 12).objective == pytest.approx(13491989.134470046, rel=1e-8)


def test_first_root_of_degree_one():
    root = first_root(10, 1)
    want = (QPRIME - 1.0) * 10.0 / QPRIME
    assert root == pytest.approx(want, abs=1e-9)
    assert krawtchouk(10, 1, root) == pytest.approx(0.0, abs=1e-9)


def _kraw_sign(n, ell, u):
    """The sign of K_ell(u) at q' = sqrt 5, exactly, for a Fraction u = p / D.

    ell! D^ell K_ell(u) = sum_j (-1)^j C(ell, j) prod_{i<j} (p - i D)
    prod_{i<ell-j} (n D - p - i D) (sqrt 5 - 1)^(ell-j) is A + B sqrt 5 with
    integers A and B, and sqrt 5 is irrational, so its sign is decided by
    the signs of A and B and, when they differ, by A^2 against 5 B^2.
    """
    p, D = u.numerator, u.denominator
    powers = [(1, 0)]  # (sqrt 5 - 1)^m as (a, b) with a + b sqrt 5
    for _ in range(ell):
        a, b = powers[-1]
        powers.append((5 * b - a, a - b))
    left, right = [1], [1]
    for i in range(ell):
        left.append(left[-1] * (p - i * D))
        right.append(right[-1] * (n * D - p - i * D))
    A = B = 0
    for j in range(ell + 1):
        c = (-1) ** j * math.comb(ell, j) * left[j] * right[ell - j]
        A += c * powers[ell - j][0]
        B += c * powers[ell - j][1]
    if A * B >= 0:
        return (A > 0 or B > 0) - (A < 0 or B < 0)
    return (A > 0) - (A < 0) if A * A > 5 * B * B else (B > 0) - (B < 0)


def test_first_root_is_a_sign_change_of_k_ell_in_exact_arithmetic():
    # the exact sign agrees with the float evaluator away from zeros
    for n, ell in ((10, 3), (33, 17)):
        for u in range(n + 1):
            v = krawtchouk(n, ell, u)
            if abs(v) > 1e-6 * krawtchouk(n, ell, 0):
                assert _kraw_sign(n, ell, Fraction(u)) == (v > 0) - (v < 0), (n, ell, u)
    # K_ell > 0 just left of the eigenvalue and < 0 just right of it, at
    # every degree mrrw_params reaches; all 2080 pairs with n <= 64 hold
    # too, a run CHANGES.md records
    eps = Fraction(1, 10**12)
    for n in range(1, 65):
        for ell in range(1, min(n, n // 2 + 2) + 1):
            r = Fraction(first_root(n, ell))
            assert _kraw_sign(n, ell, r - eps) > 0 > _kraw_sign(n, ell, r + eps), (n, ell)
    # roots fall strictly with the degree, so at most one degree brackets a
    for n in range(1, 65):
        roots = [first_root(n, ell) for ell in range(1, n + 1)]
        assert all(hi > lo for hi, lo in zip(roots, roots[1:])), n
    for n in (1, 10, 64):
        for ell in (0, n + 1):
            with pytest.raises(ValueError):
                first_root(n, ell)
    with pytest.raises(ValueError):
        first_root(65, 1)


def test_mrrw_certificate_frozen_parameters():
    frozen = {
        (10, 3): (2, 806.7310904694853),
        (20, 6): (3, 56127.21593564272),
        (40, 12): (5, 32589782.31209485),
    }
    for (n, d), (t_want, obj_want) in frozen.items():
        t, a, obj = mrrw_params(n, d)
        assert t == t_want
        assert obj == pytest.approx(obj_want, rel=1e-6)
        cert = mrrw_certificate(n, d, t, a)
        assert cert.status == "certificate"
        lam = np.array(cert.lam)
        assert lam.min() >= -1e-9 * lam.max()
        values = np.array(cert.Lambda)
        assert values[d:].max() < 1e-12
        # the explicit construction can only be weaker than the LP optimum
        assert cert.objective >= solve_distance_lp(n, d).objective
    # the top of the grid, exactly: the certificate path changes no bit
    assert mrrw_params(64, 20) == (7, 19.999999, 17620213990.234165)


def test_mrrw_params_is_none_exactly_past_the_first_root_of_k1():
    # a = d - 1e-6 lies between the first roots of two consecutive degrees
    # only while d is below the first root of K_1, (1 - 1/sqrt 5) n; past it
    # no degree brackets a, and no certificate is built
    pairs = sorted({(n, math.ceil(k * n / 10)) for n in range(2, 21) for k in range(1, 6)})
    none = [(n, d) for n, d in pairs if mrrw_params(n, d) is None]
    assert none == [(n, d) for n, d in pairs if d > first_root(n, 1)]
    assert none == [(3, 2), (5, 3), (7, 4), (9, 5)]


def test_mrrw_certificate_refuses_a_nan_lam0():
    # an integer a = u would make values[u] = 0/0 and lam_0 NaN; it is refused
    # up front, before numpy can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a in (2, 2.0):
            with pytest.raises(ValueError, match="integer"):
                mrrw_certificate(10, 3, 2, a)


@pytest.mark.parametrize("bad", [2.5, 0, math.nan])
def test_mrrw_entry_points_refuse_what_solve_distance_lp_refuses(bad):
    # a certificate at d = 2.5 would be saved as "d 2.5", which
    # load_certificate refuses; 0 and NaN would read as "no degree brackets a"
    message = f"^distance {bad} must be a positive integer or inf$"
    with pytest.raises(ValueError, match=message):
        mrrw_params(10, bad)
    with pytest.raises(ValueError, match=message):
        mrrw_certificate(10, bad, 3, 2.4)
    # past d = n, as at inf, no degree brackets a
    assert mrrw_params(10, 11) is None
    assert mrrw_params(10, math.inf) is None


def test_kraw_table_is_built_once_and_read_only():
    table = _kraw_table(6)
    assert _kraw_table(6) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    _kraw_table.cache_clear()
    n, d = 30, 9
    solve_distance_lp(n, d)
    composite_bound(n, d)
    t, a, _ = mrrw_params(n, d)
    mrrw_certificate(n, d, t, a)
    assert _kraw_table.cache_info().misses == 1
    for n in (0, 1, 2, 3, 7, 22, 45, 64):
        K = _kraw_table(n)
        for u, ell in itertools.product(range(n + 1), repeat=2):
            assert K[u, ell] == krawtchouk(n, ell, u), (n, u, ell)
    with pytest.raises(ValueError):
        _kraw_table(65)


def test_lambda_slack_check_refuses_the_one_violating_simplex_answer():
    # (58, 40) is the only pair with 1 <= d <= n <= 64 whose "optimal"
    # simplex multipliers leave Lambda(u) = 6.63e-4 > 0 at some u >= d, with
    # Lambda(0) = 9.77: 6.8e-5 of it, so the 1e-7 slack check refuses it
    # and a check loosened to 1e-3 would print it as a bound
    for call in (solve_distance_lp, composite_bound):
        with pytest.raises(ArithmeticError, match=r"violates Lambda <= 0 by 6\.630e-04$"):
            call(58, 40)


def test_composite_bound_factorisation():
    sol = solve_distance_lp(3, 2)
    assert composite_bound(3, 2) == pytest.approx(
        lovasz_bound(3) * sol.objective, rel=1e-12
    )


def test_verify_certificate_frozen_bounds():
    for (n, d), bound in (
        ((2, 2), 11.180339887498949),
        ((4, 2), 279.50849718747367),
        ((6, 3), 1611.0679774997902),
    ):
        rep = verify_certificate(solve_distance_lp(n, d))
        assert rep.ok, rep.detail
        # Python scalars, not numpy ones
        assert type(rep.ok) is bool
        for value in (rep.bound, rep.support_violation, rep.transform_minimum):
            assert type(value) is float
        assert rep.bound == bound, (n, d)
        assert rep.support_violation <= 1e-12
        assert rep.transform_minimum >= -1e-12

    t, a, _ = mrrw_params(6, 3)
    rep = verify_certificate(mrrw_certificate(6, 3, t, a))
    assert rep.ok
    assert rep.bound == 3618.0321797477886


def test_support_violation_matches_brute_force():
    # every certificate is checked at every d: the checked set is the words
    # of typewriter weight >= d, non-confusable ones (weight inf) included
    for n in range(1, 5):
        distances = list(range(1, n + 1)) + [INF]
        for d_lp in distances:
            sol = solve_distance_lp(n, d_lp)
            fr = certificate_function(sol).real
            for d in distances:
                want = max(
                    fr[x]
                    for x in itertools.product(range(5), repeat=n)
                    if word_distance(x, (0,) * n) >= d
                )
                got = verify_certificate(dataclasses.replace(sol, d=float(d)))
                assert got.support_violation == want, (n, d_lp, d)


def test_verify_certificate_rejects_a_doctored_distance():
    rep = verify_certificate(dataclasses.replace(solve_distance_lp(4, 3), d=1.0))
    assert rep.ok is False
    assert rep.support_violation == pytest.approx(0.7868932583326326, rel=1e-9)
    # at d = inf only the non-confusable words are checked
    assert verify_certificate(solve_distance_lp(3, INF)).ok


def _with_lam(sol, lam):
    """sol with multipliers lam, and its Lambda and objective to match."""
    values = _kraw_table(sol.n) @ np.array(lam)
    return dataclasses.replace(
        sol, lam=tuple(lam), Lambda=tuple(values), objective=float(values[0])
    )


def test_verify_certificate_catches_a_support_violation_of_1e_6():
    # lam_1 up by 1e-4 lifts f above 0 on the weight-3 words of (4, 2) by
    # 1.6e-6 of its scale; the transform stays >= 0 and the bound matches
    sol = solve_distance_lp(4, 2)
    rep = verify_certificate(_with_lam(sol, (sol.lam[0], sol.lam[1] + 1e-4) + sol.lam[2:]))
    scale = float(np.abs(_cube_certificate(sol)[0].real).max())
    assert 1e-6 < rep.support_violation / scale < 1e-5, rep.detail
    assert rep.transform_minimum >= -1e-12
    # Lambda(0) grows by 1e-4 K_1(0) = 1e-4 * 4 (q' - 1)
    objective = sol.objective + 1e-4 * 4 * (QPRIME - 1.0)
    assert rep.bound == pytest.approx(lovasz_bound(4) * objective, rel=1e-12)
    assert rep.ok is False


def test_verify_certificate_catches_a_transform_dip_of_1e_6():
    # at d = inf only non-confusable words are checked, where f is 0, so a
    # lam_1 of -1e-6 fails on the transform alone: f_hat dips to -1e-6 of
    # its largest magnitude
    sol = _with_lam(solve_distance_lp(3, INF), (1.0, -1e-6, 0.0, 0.0))
    rep = verify_certificate(sol)
    f, _ = _cube_certificate(sol)
    fhat = _apply_axes(f, lpbound._HALF_DFT).real
    assert rep.transform_minimum / max(fhat.max(), -fhat.min()) == pytest.approx(-1e-6, rel=1e-6)
    assert rep.support_violation == 0.0
    assert rep.bound == pytest.approx(lovasz_bound(3) * sol.objective, rel=1e-12)
    assert rep.ok is False


def test_verify_certificate_catches_an_objective_off_by_1e_4():
    sol = solve_distance_lp(4, 2)
    assert verify_certificate(sol).ok
    rep = verify_certificate(dataclasses.replace(sol, objective=sol.objective * (1.0 + 1e-4)))
    assert rep.support_violation <= 1e-12 and rep.transform_minimum >= -1e-12
    assert rep.ok is False


def _dense_certificate(sol):
    """The dense construction on all 5^n words, as the reference.

    idft of the sphere table (indexed by symbol_count, zero off the
    spheres) times the Lovasz witness is f, and dft(f) is f_hat.  Returns
    f, the bound, the support maximum, the transform minimum and the scale
    of f_hat, computed the way verify_certificate once computed them.
    """
    n, q = sol.n, 5
    c = math.cos(math.pi / q)
    coeffs = np.zeros(n * (n + 1) + 1)
    coeffs[: n + 1] = [q**n * lam / (2.0 * c) ** ell for ell, lam in enumerate(sol.lam)]
    h = idft(coeffs[symbol_count(n, (2, 3))])
    f = lovasz_assignment(n) * h
    fhat = dft(f).real
    weight = symbol_count(n, (1, 4))
    threshold = n + 1 if sol.d > n else math.ceil(sol.d)
    worst = float(np.max(f.real, where=weight >= threshold, initial=-math.inf)) + 0.0
    origin = (0,) * n
    bound = q**n * f.real[origin] / fhat[origin]
    return f, bound, worst, float(fhat.min()), float(np.abs(fhat).max())


def test_certificate_matches_the_dense_construction():
    sols = [
        solve_distance_lp(n, d)
        for n in range(1, 7)
        for d in list(range(1, n + 1)) + [INF]
    ]
    sols = [sol for sol in sols if sol.status == "optimal"]
    assert len(sols) == 27
    t, a, _ = mrrw_params(6, 3)
    sols += [mrrw_certificate(6, 3, t, a), solve_distance_lp(8, 3)]
    for sol in sols:
        want_f, bound, worst, tmin, hatscale = _dense_certificate(sol)
        scale = np.abs(want_f).max()
        f = certificate_function(sol)
        assert np.abs(f - want_f).max() <= 1e-12 * scale
        off_cube = symbol_count(sol.n, (1, 4)) > sol.n
        assert not f[off_cube].any()
        rep = verify_certificate(sol)
        assert rep.ok, rep.detail
        key = (sol.n, sol.d, sol.status)
        # numpy's FFT sums in another order than the certificate's kernel
        # blocks; test_verify_certificate_frozen_bounds pins the exact bits
        assert rep.bound == pytest.approx(bound, rel=1e-12), key
        assert abs(rep.support_violation - worst) <= 1e-12 * scale, key
        assert abs(rep.transform_minimum - tmin) <= 1e-12 * hatscale, key


def _five_by_three_report(sol):
    """ok, bound, transform minimum and scale, with f_hat on all of Z_5^n.

    verify_certificate as it was before it used the evenness of f: the same
    cube f, with f_hat evaluated at all 5^n words by the 5 x 3 block of the
    dft kernel at the columns _CUBE, per axis.
    """
    f, weight = _cube_certificate(sol)
    fr = f.real
    n = sol.n
    threshold = n + 1 if sol.d > n else math.ceil(sol.d)
    worst = max(0.0, float(np.max(fr, where=weight >= threshold, initial=-math.inf)))
    fhat = _apply_axes(f, np.exp(2j * np.pi * np.outer(np.arange(5), _CUBE) / 5)).real
    tmin = float(fhat.min())
    hatscale = max(float(fhat.max()), -tmin)
    origin = (0,) * n
    bound = 5**n * fr[origin] / fhat[origin]
    target = lovasz_bound(n) * sol.objective
    ok = (
        worst <= 1e-9 * max(1.0, float(np.abs(fr).max()))
        and tmin >= -1e-9 * max(1.0, hatscale)
        and abs(bound - target) <= 1e-6 * max(1.0, abs(target))
    )
    return ok, bound, tmin, hatscale


def test_half_cube_transform_matches_the_full_one():
    # every certificate the benchmark's certify workload verifies: the LP and
    # the explicit multiplier at n = 2..6, d = ceil(k n / 10), k = 1..5;
    # (3, 2) and (5, 3) lie past the first root of K_1 and have no multiplier
    pairs = sorted({(n, math.ceil(k * n / 10)) for n in range(2, 7) for k in range(1, 6)})
    pairs.append((8, 3))
    sols = []
    for n, d in pairs:
        sols.append(solve_distance_lp(n, d))
        if (params := mrrw_params(n, d)) is not None:
            t, a, _ = params
            sols.append(mrrw_certificate(n, d, t, a))
    assert len(sols) == 22 and all(sol.status in ("optimal", "certificate") for sol in sols)
    # and, last, one the check rejects
    sols.append(dataclasses.replace(solve_distance_lp(4, 3), d=1.0))
    oks = []
    for sol in sols:
        key = (sol.n, sol.d, sol.status)
        ok, bound, tmin, hatscale = _five_by_three_report(sol)
        rep = verify_certificate(sol)
        assert rep.ok == ok, key
        assert rep.bound == bound, key
        assert abs(rep.transform_minimum - tmin) <= 1e-12 * hatscale, key
        oks.append(rep.ok)
    assert oks == [True] * 22 + [False]


def test_a_failed_lp_has_no_certificate_to_check():
    failed = solve_distance_lp(22, 9)
    assert failed.status == "numeric-failure"
    sol = solve_distance_lp(4, 2)
    t, a, _ = mrrw_params(4, 2)
    cert = mrrw_certificate(4, 2, t, a)
    for bad, status in (
        (failed, "numeric-failure"),
        (dataclasses.replace(sol, lam=(1.0, math.nan) + sol.lam[2:]), "optimal"),
        (dataclasses.replace(cert, lam=cert.lam[:-1] + (math.inf,)), "certificate"),
    ):
        for check in (certificate_function, verify_certificate):
            with pytest.raises(ValueError, match=f"no certificate to check: LP status {status}$"):
                check(bad)


def test_verify_certificate_memory_cap():
    # no array has more than 3^n entries; the cap is eight complex 3^n arrays
    # (about 4.6, 4.1 and 4.1 are reached; f_hat on all 5^n words took 2.2
    # complex 5^n arrays, 329 MiB at n = 10, and n = 12 was refused)
    t, a, _ = mrrw_params(10, 3)
    for sol in (solve_distance_lp(8, 3), mrrw_certificate(10, 3, t, a), solve_distance_lp(12, 3)):
        tracemalloc.start()
        try:
            rep = verify_certificate(sol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak <= 8 * 16 * 3**sol.n, (sol.n, peak / (16 * 3**sol.n))


def test_certificate_size_guard_refuses_before_allocating():
    # the dense certificate and the witness hold 5^n words, so n = 11 is
    # refused; verify_certificate holds 3^n, so it is refused from n = 15
    dense = r"q\^n = 48828125 exceeds guard 10000000"
    sol, longer = solve_distance_lp(11, 3), solve_distance_lp(15, 3)
    for call, message in (
        (lambda: certificate_function(sol), dense),
        (lambda: lovasz_assignment(11), dense),
        (lambda: verify_certificate(longer), r"3\^n = 14348907 exceeds guard 10000000"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, message


def test_certificate_roundtrip(tmp_path):
    path = tmp_path / "cert.txt"
    sol = solve_distance_lp(4, 2)
    save_certificate(sol, path)
    back = load_certificate(path)
    assert back.n == sol.n and back.d == sol.d and back.status == sol.status
    assert back.objective == sol.objective
    assert back.lam == sol.lam
    assert tuple(back.Lambda) == tuple(float(v) for v in sol.Lambda)

    inf_sol = solve_distance_lp(2, INF)
    save_certificate(inf_sol, path)
    assert load_certificate(path).d == INF


def test_certificates_off_sqrt5_are_refused(tmp_path):
    # a loaded certificate is outside input; 1 + 1/cos(pi/7) is the q = 7 value
    path = tmp_path / "cert.txt"
    save_certificate(solve_distance_lp(3, 2), path)
    assert verify_certificate(load_certificate(path)).ok
    text = path.read_text()
    assert "qprime 2.2360679774997898\n" in text
    path.write_text(text.replace("qprime 2.2360679774997898", "qprime 2.1099162641747427"))
    with pytest.raises(ValueError, match=r"qprime 2\.1099162641747427 is not sqrt 5"):
        load_certificate(path)
    # a qprime one millionth off is refused as well
    path.write_text(text.replace("qprime 2.2360679774997898", f"qprime {QPRIME + 1e-6!r}"))
    with pytest.raises(ValueError, match=r"qprime 2\.23606897749979 is not sqrt 5"):
        load_certificate(path)
    # nan compares false with everything, so it must not slip past the test
    path.write_text(text.replace("qprime 2.2360679774997898", "qprime nan"))
    with pytest.raises(ValueError, match=r"qprime nan is not sqrt 5"):
        load_certificate(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", "0", r"n = 0 must be at least 1"),
        ("d", "0", r"d = 0 must be a positive integer or inf"),
        ("d", "-2", r"d = -2 must be a positive integer or inf"),
        ("lam", "1 0.5 0.25", r"n \+ 1 = 4 values .* has 3 and 4"),
        ("lam", "1 0.5 0.25 0.125 0", r"n \+ 1 = 4 values .* has 5 and 4"),
        ("Lambda", "1 2 3", r"n \+ 1 = 4 values .* has 4 and 3"),
        ("status", None, r"^certificate has no status line$"),
    ],
    ids=["n-zero", "d-zero", "d-negative", "lam-short", "lam-long", "Lambda-short", "no-status"],
)
def test_malformed_certificates_are_refused(tmp_path, key, value, message):
    # value None drops the key's line
    path = tmp_path / "cert.txt"
    save_certificate(solve_distance_lp(3, 2), path)
    lines = [
        f"{key} {value}" if line.split(" ")[0] == key else line
        for line in path.read_text().splitlines()
        if value is not None or line.split(" ")[0] != key
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_certificate(path)


# (size, lex-first witness) of every (n, d) with n <= 3 and d <= 2n or inf,
# pinned so that a faster search keeps them; d = 1 keeps every word
_MAX_CODES = {
    (1, 2): (2, "0 2"),
    (1, INF): (2, "0 2"),
    (2, 2): (10, "00 02 11 13 22 24 30 33 41 44"),
    (2, 3): (5, "00 12 24 31 43"),
    (2, 4): (5, "00 12 24 31 43"),
    (2, INF): (5, "00 12 24 31 43"),
    (3, 2): (
        50,
        "000 002 011 013 022 024 030 033 041 044 101 103 112 114 120 123 131"
        " 134 140 142 202 204 210 213 221 224 230 232 241 243 300 303 311 314"
        " 320 322 331 333 342 344 401 404 410 412 421 423 432 434 440 443",
    ),
    (3, 3): (
        20,
        "000 002 020 022 111 113 131 133 222 224 242 244 300 303 330 333 411"
        " 414 441 444",
    ),
    (3, 4): (10, "000 002 020 122 200 224 243 312 331 433"),
    (3, 5): (10, "000 002 020 122 200 224 243 312 331 433"),
    (3, 6): (10, "000 002 020 122 200 224 243 312 331 433"),
    (3, INF): (10, "000 002 020 122 200 224 243 312 331 433"),
}


def test_max_code_small_cases():
    for n in (1, 2, 3):
        words = tuple(itertools.product(range(5), repeat=n))
        assert max_code(n, 1) == (5**n, words)
        for d in list(range(2, 2 * n + 1)) + [INF]:
            size, witness = max_code(n, d)
            got = " ".join("".join(map(str, w)) for w in witness)
            assert (size, got) == _MAX_CODES[(n, d)], (n, d)
    assert max_code(2, INF) == (5, ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3)))


def test_max_code_witnesses_meet_the_first_symbol_cap():
    # words with one first symbol are as far apart as their suffixes, so a
    # code meets each first-symbol block at most max_code(n - 1, d) times
    for (n, d), (size, witness) in _MAX_CODES.items():
        cap = max_code(n - 1, d)[0] if n > 1 else 1
        per_block = [sum(w[0] == str(a) for w in witness.split()) for a in range(5)]
        assert sum(per_block) == size and max(per_block) <= cap, (n, d)
        if (n, d) in ((2, 2), (3, 2)):
            assert per_block == [cap] * 5, (n, d)  # the cap is tight here


def _identity(nv):
    """The one map of the trivial group, as the search takes its maps: the
    search then uses no symmetry."""
    return np.arange(nv)[None, :]


def _lex_first_clique_brute_force(adj):
    best = (0,)
    others = range(1, len(adj))
    for r in range(1, len(adj)):
        for rest in itertools.combinations(others, r):
            clique = (0,) + rest
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2)):
                best = clique  # combinations come in lex order: keep the first
                break
        else:
            break  # no clique of this size, so none larger
    return len(best), list(best)


@settings(deadline=None, max_examples=300)
@given(
    nv=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_clique_with_zero_matches_brute_force(nv, density, seed):
    rng = np.random.default_rng(seed)
    adj = [0] * nv
    for u, v in itertools.combinations(range(nv), 2):
        if rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    got = _max_clique_with_zero(adj, _identity(nv), None, [(1 << nv) - 1], nv)
    assert got == _lex_first_clique_brute_force(adj)


def _largest_clique(adj, vertices):
    for r in range(len(vertices), 0, -1):
        for sub in itertools.combinations(vertices, r):
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(sub, 2)):
                return r
    return 0


@settings(deadline=None, max_examples=200)
@given(
    nv=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    slack=st.integers(0, 1),
    plant=st.booleans(),
)
def test_block_cap_keeps_the_lex_first_clique(nv, density, seed, slack, plant):
    # contiguous blocks, each capped by the largest clique inside any of
    # them (plus slack, since any upper bound is a valid cap).  A planted
    # graph has a clique through 0 with k words in every block and no other
    # edge inside a block, so with no slack its clique meets the cap and the
    # cap-first witness pass returns it; otherwise that pass finds none and
    # the size pass and a second witness pass run
    rng = np.random.default_rng(seed)
    cuts = [0, *sorted(rng.choice(np.arange(1, nv), size=rng.integers(0, nv), replace=False)), nv]
    runs = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    block_of = {v: b for b, run in enumerate(runs) for v in run}
    planted = set()
    if plant:
        k = int(rng.integers(1, min(map(len, runs)) + 1))
        planted = {0, *(int(v) for v in rng.choice(runs[0][1:], size=k - 1, replace=False))}
        for run in runs[1:]:
            planted |= {int(v) for v in rng.choice(run, size=k, replace=False)}
    adj = [0] * nv
    for u, v in itertools.combinations(range(nv), 2):
        if plant and block_of[u] == block_of[v]:
            edge = u in planted and v in planted
        else:
            edge = u in planted and v in planted or rng.random() < density
        if edge:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    blocks = [sum(1 << v for v in run) for run in runs]
    cap = max(_largest_clique(adj, run) for run in runs) + slack
    got = _max_clique_with_zero(adj, _identity(nv), None, blocks, cap)
    assert got == _lex_first_clique_brute_force(adj)
    if plant and not slack:
        assert got[0] == cap * len(blocks) == len(planted)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    nv=st.integers(1, 6),
    copies=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dominated_branches_keep_the_lex_first_clique(nv, copies, density, seed):
    # a blown-up graph: each vertex of a random graph becomes 1-3 pairwise
    # non-adjacent copies with its neighbourhood, in shuffled order, so many
    # branches have the candidates of a sibling or a subset of them; with
    # one block and with contiguous blocks capped by their largest clique
    rng = np.random.default_rng(seed)
    base = [rng.random(nv) < density for _ in range(nv)]
    owner = rng.permutation([v for v in range(nv) for _ in range(copies[v])])
    size = len(owner)
    adj = [0] * size
    for x, y in itertools.combinations(range(size), 2):
        u, v = sorted((owner[x], owner[y]))
        if u != v and base[u][v]:
            adj[x] |= 1 << y
            adj[y] |= 1 << x
    want = _lex_first_clique_brute_force(adj)
    assert _max_clique_with_zero(adj, _identity(size), None, [(1 << size) - 1], size) == want
    cuts = [0, *sorted(rng.choice(np.arange(1, size), size=rng.integers(0, size), replace=False)), size]
    runs = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    blocks = [sum(1 << v for v in run) for run in runs]
    cap = max(_largest_clique(adj, run) for run in runs)
    assert _max_clique_with_zero(adj, _identity(size), None, blocks, cap) == want


def test_compatibility_rows_are_the_word_distance_thresholds():
    for n in (1, 2, 3):
        words = list(itertools.product(range(5), repeat=n))
        for d in (1, 2, 3, INF):
            def compatible(x, y):
                dist = word_distance(x, y)
                return x != y and (dist == INF if d == INF else dist >= d)

            want = [sum(1 << j for j, y in enumerate(words) if compatible(x, y)) for x in words]
            assert lpbound._compatibility_rows(n, d) == want, (n, d)


def _root_maps(n):
    """The n! 2^n maps of Z5^n that permute coordinates and negate some."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield lambda x, perm=perm, signs=signs: tuple(
                signs[i] * x[perm[i]] % 5 for i in range(n)
            )


def _explicit_orbits(n):
    """orbits[v]: the bitset of the images of word v (base-5 order) under
    every map of _root_maps."""
    words = list(itertools.product(range(5), repeat=n))
    index = {w: v for v, w in enumerate(words)}
    maps = list(_root_maps(n))
    return [sum({1 << index[m(w)] for m in maps}) for w in words]


def _map_rows(n):
    """_root_maps as index arrays, in their order: row g holds the index
    of the image of each word (base-5 order)."""
    words = list(itertools.product(range(5), repeat=n))
    index = {w: v for v, w in enumerate(words)}
    return np.array([[index[m(w)] for w in words] for m in _root_maps(n)])


def _swap_columns(n):
    """[x, v]: the index of v - x, so column v is the swap x -> v - x."""
    words = list(itertools.product(range(5), repeat=n))
    index = {w: v for v, w in enumerate(words)}
    return np.array(
        [[index[tuple((b - a) % 5 for a, b in zip(x, y))] for y in words] for x in words]
    )


def test_root_maps_fix_zero_and_keep_the_distance():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        words = list(itertools.product(range(5), repeat=n))
        maps = list(_root_maps(n))
        assert len(maps) == math.factorial(n) * 2**n
        if n <= 2:
            pairs = list(itertools.product(words, repeat=2))
        else:
            pairs = [(words[i], words[j]) for i, j in rng.integers(0, len(words), size=(400, 2))]
        for m in maps:
            assert m((0,) * n) == (0,) * n
            assert sorted(map(m, words)) == words
            for x, y in pairs:
                assert word_distance(m(x), m(y)) == word_distance(x, y)


def test_max_code_passes_the_explicit_root_orbits(monkeypatch):
    seen = []
    search = lpbound._max_clique_with_zero

    def spy(adj, maps, swaps, blocks, cap):
        seen.append((maps, swaps, blocks, cap))
        return search(adj, maps, swaps, blocks, cap)

    monkeypatch.setattr(lpbound, "_max_clique_with_zero", spy)
    for n in (1, 2, 3):
        # the cache's own function, so the search runs even when cached
        assert lpbound._max_code_impl.__wrapped__(n, INF) == max_code(n, INF)
        maps, swaps, blocks, cap = seen.pop()
        # every root map, in _root_maps' order, and the orbits they give
        assert np.array_equal(maps, _map_rows(n))
        assert [sum({1 << int(v) for v in column}) for column in maps.T] == _explicit_orbits(n)
        assert np.array_equal(swaps, _swap_columns(n))
        # the five first-symbol runs, capped by the code one length down
        run = 5 ** (n - 1)
        assert blocks == [sum(1 << v for v in range(a * run, (a + 1) * run)) for a in range(5)]
        assert cap == (max_code(n - 1, INF)[0] if n > 1 else 1)
    assert len(set(_explicit_orbits(3))) == 10  # the sorted triples over {0, 1, 2}


def _cayley_graph(n, connection):
    """Bitset rows of the Cayley graph on Z5^n (base-5 order): x ~ y when
    x - y lies in the connection set."""
    words = list(itertools.product(range(5), repeat=n))
    adj = [0] * len(words)
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            if tuple((a - b) % 5 for a, b in zip(x, y)) in connection:
                adj[i] |= 1 << j
    return adj


def _orbit_pruning_agrees(n, pick):
    """The search with the root maps and the swaps returns the size and
    witness it returns with the identity alone, on the Cayley graph whose
    connection set is the union of the root orbits of Z5^n that pick
    chooses (the orbit of 0 excluded)."""
    orbits = _explicit_orbits(n)
    words = list(itertools.product(range(5), repeat=n))
    classes = sorted(set(orbits) - {1})
    union = sum(cls for cls, keep in zip(classes, pick) if keep)
    connection = {w for v, w in enumerate(words) if union >> v & 1}
    adj = _cayley_graph(n, connection)
    blocks, cap = [(1 << len(words)) - 1], len(words)
    got = _max_clique_with_zero(adj, _map_rows(n), _swap_columns(n), blocks, cap)
    assert got == _max_clique_with_zero(adj, _identity(len(words)), None, blocks, cap)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(pick=st.lists(st.booleans(), min_size=5, max_size=5))
def test_orbit_pruning_matches_singleton_orbits_on_z5_squared(pick):
    _orbit_pruning_agrees(2, pick)


@settings(deadline=None, max_examples=12, derandomize=True)
@given(pick=st.lists(st.booleans(), min_size=9, max_size=9))
def test_orbit_pruning_matches_singleton_orbits_on_z5_cubed(pick):
    _orbit_pruning_agrees(3, pick)


@functools.lru_cache(maxsize=None)
def _affine_tables(n):
    """Z5^n spelled out with no package table: [x, y] of the first is
    word_distance(w_x, w_y), [a, b] of the second is the index of w_a + w_b,
    and the third is _map_rows(n)."""
    words = list(itertools.product(range(5), repeat=n))
    index = {w: v for v, w in enumerate(words)}
    dist = np.array([[word_distance(x, y) for y in words] for x in words])
    plus = np.array([[index[tuple((a + b) % 5 for a, b in zip(x, y))] for y in words] for x in words])
    return dist, plus, _map_rows(n)


@functools.lru_cache(maxsize=None)
def _keeps_distance(n, g):
    dist = _affine_tables(n)[0]
    return np.array_equal(dist[np.ix_(g, g)], dist)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(n=st.integers(1, 3), data=st.data())
def test_node_maps_fix_the_chosen_words_and_keep_the_distance(n, data):
    # the maps of each node on one search path, found as the search finds
    # them: every one maps the chosen set onto itself and keeps every
    # distance, and while at most three words are chosen they are all of
    # the 5^n 2^n n! maps x -> M(x) + t that fix the set
    _, plus, explicit = _affine_tables(n)
    _, _, diff, maps = lpbound._length_tables(n)
    rest = data.draw(st.lists(st.integers(1, 5**n - 1), unique=True, max_size=min(6, 5**n - 1)))
    chosen, rows = [0, *rest], None
    for depth in range(1, len(chosen) + 1):
        words = chosen[:depth]
        rows = lpbound._node_maps(maps, diff, words, rows if depth > 3 else None)
        used = {tuple(range(5**n))} if rows is None else set(map(tuple, rows.tolist()))
        for g in used:
            assert sorted(g[v] for v in words) == sorted(words)
            assert _keeps_distance(n, g)
        if depth <= 3:
            # every (M, t): the images of the chosen words, then those that
            # are the chosen set again
            onto = (np.sort(plus[explicit[:, words]], axis=1) == np.sort(words)[:, None]).all(axis=1)
            assert used == {tuple(plus[explicit[m], t]) for m, t in zip(*np.nonzero(onto))}


def test_max_code_matches_the_search_without_symmetry():
    # every d of every n <= 3: the symmetric search returns the size and the
    # witness of the identity-only search, whose block caps come from the
    # identity-only search one length down
    searched = {}
    for n in (1, 2, 3):
        words = list(itertools.product(range(5), repeat=n))
        run = 5 ** (n - 1)
        blocks = [((1 << run) - 1) << (run * a) for a in range(5)]
        for d in list(range(1, 2 * n + 1)) + [INF]:
            # every d > n is the d = inf graph
            key = (n, INF if d > n else d)
            if key not in searched:
                cap = searched[n - 1, INF if d > n - 1 else d][0] if n > 1 else 1
                adj = lpbound._compatibility_rows(*key)
                searched[key] = _max_clique_with_zero(adj, _identity(len(words)), None, blocks, cap)
            size, clique = searched[key]
            assert max_code(n, d) == (size, tuple(words[v] for v in clique)), (n, d)


def test_max_code_guard():
    with pytest.raises(ValueError, match="5\\^n <= 500"):
        max_code(4, 2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            max_code(n, 1)
    # a bool is no length or distance, and a length is an integer
    for n, d, message in [
        (True, 1, "^n must be an integer, not True$"),
        (np.True_, 1, "^n must be an integer, not "),
        (2.5, 2, r"^n must be an integer, not 2\.5$"),
        (3.0, 2, r"^n must be an integer, not 3\.0$"),
        (2, True, "^d must be an integer or inf, not True$"),
        (2, np.True_, "^d must be an integer or inf, not "),
    ]:
        with pytest.raises(ValueError, match=message):
            max_code(n, d)
    assert max_code(np.int64(2), np.int32(2)) == max_code(2, 2)
    assert max_code(np.uint8(1), 1) == max_code(1, 1)


def test_composite_bound_dominates_exact_sizes_quickly():
    for n in (1, 2):
        for d in list(range(1, 2 * n + 1)) + [INF]:
            size, _ = max_code(n, d)
            assert composite_bound(n, d) >= size * (1.0 - 1e-9), (n, d)
