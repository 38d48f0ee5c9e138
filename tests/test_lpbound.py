"""Distance LP, explicit multiplier certificates, and exact small codes."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typewriter_bounds.construction import word_weight
from typewriter_bounds.fourier import (
    GroupFunction,
    dft,
    idft,
    lovasz_assignment,
    lovasz_bound,
    symbol_count,
)
from typewriter_bounds.lpbound import (
    _CUBE,
    QPRIME,
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
from typewriter_bounds.scalars import bisect_root, krawtchouk

INF = math.inf


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


def _scan_first_root(n, ell):
    """The former first_root: a 0.05-step scan from u = 0, then bisection."""
    f = lambda u: krawtchouk(n, ell, u)
    prev_u, prev_v = 0.0, f(0.0)
    u = 0.05
    while u <= n + 0.05:
        v = f(u)
        if v == 0.0:
            return u
        if (prev_v > 0.0) != (v > 0.0):
            return bisect_root(f, prev_u, u)
        prev_u, prev_v = u, v
        u += 0.05
    raise ArithmeticError(f"no sign change found for K_{ell} on [0, {n}]")


def test_first_root_matches_the_scan_bit_for_bit():
    # every degree mrrw_params visits: the eigenvalue only picks the bracket
    for n in range(1, 65):
        for ell in range(1, min(n, n // 2 + 2) + 1):
            assert first_root(n, ell) == _scan_first_root(n, ell), (n, ell)
    for n in (1, 10, 64):
        for ell in (0, n + 1):
            with pytest.raises(ValueError):
                first_root(n, ell)
    with pytest.raises(ValueError):
        first_root(65, 1)


@pytest.mark.parametrize("shift", [-0.2, 0.2])
def test_first_root_walks_to_the_bracket_from_a_shifted_eigenvalue(monkeypatch, shift):
    # zeros are more than 1 apart, so an eigenvalue 0.2 off still meets the
    # same bracket, from the left or from the right
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + shift)
    for n in (1, 10, 33, 64):
        for ell in range(1, min(n, n // 2 + 2) + 1):
            assert first_root(n, ell) == _scan_first_root(n, ell), (n, ell)


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


def test_mrrw_certificate_refuses_a_nan_lam0():
    # an integer a = u would make values[u] = 0/0 and lam_0 NaN; it is refused
    # up front, before numpy can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a in (2, 2.0):
            with pytest.raises(ValueError, match="integer"):
                mrrw_certificate(10, 3, 2, a)


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
            fr = certificate_function(sol).values.real
            for d in distances:
                want = max(
                    fr[x]
                    for x in itertools.product(range(5), repeat=n)
                    if word_weight(x) >= d
                )
                got = verify_certificate(dataclasses.replace(sol, d=float(d)))
                assert got.support_violation == want, (n, d_lp, d)


def test_verify_certificate_rejects_a_doctored_distance():
    rep = verify_certificate(dataclasses.replace(solve_distance_lp(4, 3), d=1.0))
    assert rep.ok is False
    assert rep.support_violation == pytest.approx(0.7868932583326326, rel=1e-9)
    # at d = inf only the non-confusable words are checked
    assert verify_certificate(solve_distance_lp(3, INF)).ok


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
    h = idft(GroupFunction(n, coeffs[symbol_count(n, (2, 3))]))
    f = lovasz_assignment(n).values * h.values
    fhat = dft(GroupFunction(n, f)).values.real
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
        f = certificate_function(sol).values
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
    # the explicit multiplier at n = 2..6, d = ceil(k n / 10), k = 1..5
    pairs = sorted({(n, math.ceil(k * n / 10)) for n in range(2, 7) for k in range(1, 6)})
    pairs.append((8, 3))
    sols = []
    for n, d in pairs:
        sols.append(solve_distance_lp(n, d))
        t, a, _ = mrrw_params(n, d)
        sols.append(mrrw_certificate(n, d, t, a))
    assert len(sols) == 24 and all(sol.status in ("optimal", "certificate") for sol in sols)
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
    assert oks == [True] * 24 + [False]


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
    assert _max_clique_with_zero(adj) == _lex_first_clique_brute_force(adj)


def test_max_code_guard():
    with pytest.raises(ValueError, match="5\\^n <= 500"):
        max_code(4, 2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            max_code(n, 1)


def test_composite_bound_dominates_exact_sizes_quickly():
    for n in (1, 2):
        for d in list(range(1, 2 * n + 1)) + [INF]:
            size, _ = max_code(n, d)
            assert composite_bound(n, d) >= size * (1.0 - 1e-9), (n, d)
