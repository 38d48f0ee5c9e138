"""Fast self-check suites for the numerical identities behind each module.

Every invariant closes over nothing mutable and runs in well under a
second, so the whole registry is cheap enough to run before trusting a
batch of results.  Checks return (ok, detail); run_suite collects
(name, ok, detail) triples without stopping at the first failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import channel, construction, curves, expurgated, fourier, lpbound, scalars

__all__ = ["SUITES", "run_suite"]


def _close(got, want, tol, label):
    ok = abs(got - want) <= tol
    return ok, f"{label}: got {got!r}, want {want!r} (tol {tol:g})"


def _check_entropy_identity():
    # H2(4/5) + 8/5 = log2 5 exactly; anchors delta(C0) = 2/5
    got = scalars.qary_entropy(0.8, 2) + 1.6
    return _close(got, scalars.LOG5, 1e-14, "H2(4/5) + 8/5")


def _check_krawtchouk_recurrence():
    worst = 0.0
    for u in range(9):
        for ell in range(9):
            a = scalars.krawtchouk(8, ell, u)
            b = scalars.krawtchouk_recurrence(8, ell, u)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst <= 1e-10, f"direct vs recurrence rel err {worst:.3e}"


def _check_log2_binomial():
    got = scalars.log2_binomial(70, 35)
    want = math.log2(math.comb(70, 35))
    return _close(got, want, 1e-9, "log2 C(70,35)")


def _check_rate_anchors():
    d0 = curves.delta_of_r(curves.ZERO_ERROR_CAPACITY)
    ds = curves.delta_of_r(curves.r_star())
    ok1, m1 = _close(d0, 0.4, 1e-9, "delta(C0)")
    ok2, m2 = _close(ds, 0.375, 1e-9, "delta(R*)")
    return ok1 and ok2, f"{m1}; {m2}"


def _check_curve_meeting_point():
    c0 = curves.ZERO_ERROR_CAPACITY
    a = curves.e_sl_star(c0)
    b = curves.e_lp1(c0)
    return _close(a - b, 0.0, 1e-9, "e_sl_star(C0) - e_lp1(C0)")


def _check_straight_line_endpoints():
    ok1, m1 = _close(curves.e_sl(curves.CAPACITY), 0.0, 1e-12, "e_sl(C)")
    ok2, m2 = _close(curves.e_sl(curves.ZERO_ERROR_CAPACITY), 1.0, 1e-12, "e_sl(C0)")
    return ok1 and ok2, f"{m1}; {m2}"


def _check_eigenvalue_zero():
    rho = expurgated.critical_rho()
    eig = min(expurgated.circulant_eigenvalues(rho))
    return _close(eig, 0.0, 1e-12, "min eigenvalue at critical rho")


def _check_exponent_branch_continuity():
    rho = expurgated.critical_rho()
    left = expurgated.ex_exponent_inf(rho * (1 - 1e-12))
    right = expurgated.ex_exponent_inf(rho * (1 + 1e-12))
    return _close(left - right, 0.0, 1e-9, "branch mismatch at critical rho")


def _check_shannon_q_form():
    val = expurgated.q_form(1.0, lpbound.max_code(2, scalars.INF)[1])
    ok = val == Fraction(1, 5)
    return ok, f"Q^2 on the 5-word zero-error code: {val!r}, want Fraction(1, 5)"


def _check_small_spectrum():
    gen = construction.StructuredGenerator(2, 1, ((1, 2),))
    spec = construction.weight_spectrum(gen)
    want = {0: 1, 2: 4, 3: 8, 4: 4}
    ok = spec.counts == want and spec.infinite_count == 108
    return ok, f"spectrum {spec.counts} inf {spec.infinite_count}, want {want} inf 108"


def _check_union_bound_value():
    gen = construction.StructuredGenerator(2, 1, ((1, 2),))
    got = construction.union_bound(construction.weight_spectrum(gen))
    return _close(got, 2.25, 1e-12, "union bound on the length-4 seed code")


def _check_gv_zero_rate():
    return _close(curves.gv_delta(0.0), 0.8, 1e-9, "gv_delta(0)")


def _check_transform_oracle():
    # lpbound's two kernel blocks against numpy's FFT, on a random function
    # placed on {0, +-1}^3 and on {0, +-2}^3
    vals = np.random.default_rng(7).standard_normal((3, 3, 3))
    cube, sphere = np.ix_(*(lpbound._CUBE,) * 3), np.ix_(*(lpbound._SPHERE,) * 3)
    on_cube, on_sphere = np.zeros((5, 5, 5)), np.zeros((5, 5, 5))
    on_cube[cube], on_sphere[sphere] = vals, vals
    half_dft = 5**3 * np.fft.ifftn(on_cube)[np.ix_(*(lpbound._HALF,) * 3)]
    cube_idft = np.fft.fftn(on_sphere)[cube] / 5**3
    err = max(
        float(np.abs(lpbound._apply_axes(vals, lpbound._HALF_DFT) - half_dft).max()),
        float(np.abs(lpbound._apply_axes(vals, lpbound._CUBE_IDFT) - cube_idft).max()),
    )
    return err <= 1e-9, f"kernel blocks vs fft oracle, max abs err {err:.3e}"


def _check_parseval():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    f = fourier.GroupFunction(2, vals)
    lhs = fourier.inner(f, f).real
    g = fourier.dft(f)
    rhs = (fourier.inner(g, g) / 5**2).real
    return _close(lhs - rhs, 0.0, 1e-12, "Parseval defect")


def _check_sphere_transform_identity():
    worst = 0.0
    for ell in range(4):
        transform = fourier.dft(fourier.freq_sphere_indicator(3, ell))
        for u in range(4):
            a = transform[(1,) * u + (0,) * (3 - u)]
            b = (2.0 * math.cos(math.pi / 5.0)) ** ell * scalars.krawtchouk(3, ell, u)
            worst = max(worst, abs(a - b))
    return worst <= 1e-9, f"sphere transform vs Krawtchouk form, max err {worst:.3e}"


def _check_lp_one_letter():
    sol = lpbound.solve_distance_lp(1, 1)
    return _close(sol.objective, math.sqrt(5.0), 1e-9, "LP(1, 1)")


def _check_lp_distance_one():
    sol = lpbound.solve_distance_lp(3, 1)
    return _close(sol.objective, 5.0**1.5, 1e-6, "LP(3, 1)")


def _check_certificate_roundtrip():
    sol = lpbound.solve_distance_lp(3, 2)
    rep = lpbound.verify_certificate(sol)
    return rep.ok, rep.detail


def _check_confusion_prob():
    got = channel.confusion_prob((0,), (1,))
    return _close(got, 0.25, 0.0, "one-letter adjacent confusion")


def _check_two_codeword_rate():
    code = [(0, 0, 0), (1, 1, 0)]
    res = channel.monte_carlo_pe(code, trials=20000, seed=0)
    want = 2.0**-3  # distance 2, ambiguous with prob 1/4, tie errs half the time
    three_sigma = 3.0 * math.sqrt(want * (1.0 - want) / res.trials)
    ok = abs(res.estimate - want) <= three_sigma
    return ok, f"two-codeword Pe {res.estimate:.5f}, want {want} +- {three_sigma:.5f}"


SUITES = {
    "scalars": [
        ("entropy-identity", _check_entropy_identity),
        ("krawtchouk-recurrence", _check_krawtchouk_recurrence),
        ("log2-binomial-crossover", _check_log2_binomial),
    ],
    "curves": [
        ("rate-anchors", _check_rate_anchors),
        ("meeting-point", _check_curve_meeting_point),
        ("straight-line-endpoints", _check_straight_line_endpoints),
    ],
    "expurgated": [
        ("eigenvalue-zero", _check_eigenvalue_zero),
        ("branch-continuity", _check_exponent_branch_continuity),
        ("shannon-q-form", _check_shannon_q_form),
    ],
    "construction": [
        ("seed-spectrum", _check_small_spectrum),
        ("union-bound", _check_union_bound_value),
        ("gv-zero-rate", _check_gv_zero_rate),
    ],
    "fourier": [
        ("transform-oracle", _check_transform_oracle),
        ("parseval", _check_parseval),
        ("sphere-transform", _check_sphere_transform_identity),
    ],
    "lp": [
        ("one-letter", _check_lp_one_letter),
        ("distance-one", _check_lp_distance_one),
        ("certificate-roundtrip", _check_certificate_roundtrip),
    ],
    "channel": [
        ("confusion-prob", _check_confusion_prob),
        ("two-codeword-rate", _check_two_codeword_rate),
    ],
}


def run_suite(name: str):
    """Run one suite, returning a list of (check name, ok, detail)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}, have {sorted(SUITES)}")
    out = []
    for label, fn in SUITES[name]:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append((f"{name}/{label}", bool(ok), detail))
    return out
