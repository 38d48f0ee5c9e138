"""End-to-end checks of the package's headline numerical guarantees.

One test per guarantee, each at its stated tolerance, with runtime
ceilings asserted where a guarantee includes one.  This module sorts
first so the expensive cold-cache searches are timed honestly.
"""

import itertools
import math
import time

from typewriter_bounds import (
    channel,
    cli,
    construction,
    curves,
    expurgated,
    fourier,
    lpbound,
)
from typewriter_bounds.scalars import bisect_root

C0 = curves.ZERO_ERROR_CAPACITY
C = curves.CAPACITY


def test_criterion_01_critical_rho_and_flat_eigenvalue():
    t0 = time.perf_counter()
    rho = expurgated.critical_rho()
    smallest = min(expurgated.circulant_eigenvalues(rho))
    elapsed = time.perf_counter() - t0
    assert abs(rho - 1.4404) <= 5e-4
    assert abs(smallest) <= 1e-9
    assert elapsed < 1e-3


def test_criterion_02_values_at_the_meeting_rate():
    assert abs(curves.e_lp1(C0) - (1.0 - 1.0 / math.sqrt(5.0))) <= 1e-9
    assert abs(curves.e_sl(C0) - 1.0) <= 1e-9
    assert abs(curves.e_sl_star(C0) - 0.552786) <= 1e-6


def test_criterion_03_branch_continuity_at_r_star():
    from typewriter_bounds.scalars import qary_entropy

    r_star = curves.r_star()
    formula = curves.LOG5 - 0.5 * qary_entropy(0.25, 2.0) - 0.75
    assert abs(r_star - formula) <= 1e-12
    assert abs(curves.delta_of_r(r_star) - 0.375) <= 1e-6
    assert abs(curves.e_gv_star(r_star) - curves.e_rex(r_star)) <= 1e-6


def test_criterion_04a_gv_strictly_exceeds_expurgated():
    r_star = curves.r_star()
    rates = [C0] + [C0 + (r_star - C0) * i / 11 for i in range(1, 11)]
    for r in rates:
        assert curves.e_gv_star(r) - curves.e_rex(r) > 0.0, r


def test_criterion_04b_margin_size_at_the_meeting_rate():
    # delta(C0) = 2/5 exactly because H2(4/5) = log2(5) - 8/5, the GV slope
    # 4/3 - H2(1/3) is log2(4/3), and e_rex(C0) = C - C0 = log2(sqrt5 / 2);
    # so the margin is (2/5) log2(4/3) - log2(sqrt5 / 2)
    # = 9/5 - (2/5) log2 3 - (1/2) log2 5 = 5.051e-3, written out here from
    # math.log2 alone
    exact = 9.0 / 5.0 - 0.4 * math.log2(3.0) - 0.5 * math.log2(5.0)
    margin = curves.e_gv_star(C0) - curves.e_rex(C0)
    assert abs(margin - exact) <= 1e-12
    # the improvement over the expurgated bound is real but marginal
    assert 0.0 < margin < 1e-2


def test_criterion_05_exact_q_form_on_the_shannon_code():
    from fractions import Fraction

    t0 = time.perf_counter()
    dist = expurgated.code_distribution(expurgated.zero_error_code2())
    for rho in (1.0, 1.5, 3.0):
        q2 = expurgated.q_form(rho, dist)
        assert isinstance(q2, Fraction)
        assert q2 == Fraction(1, 5)
        exponent = -(rho / 2.0) * math.log2(float(q2))
        assert abs(exponent - rho * curves.LOG5 / 2.0) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_sphere_transform_matches_closed_form():
    t0 = time.perf_counter()
    for n in range(1, 7):
        for ell in range(n + 1):
            for u in range(n + 1):
                direct = fourier.sphere_transform(
                    n, ell, fourier.canonical_sphere_word(n, u)
                )
                closed = fourier.sphere_transform_closed_form(n, ell, u)
                assert abs(direct - closed) <= 1e-9, (n, ell, u)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_lovasz_chain():
    t0 = time.perf_counter()
    assert abs(fourier.lovasz_bound(1) - math.sqrt(5.0)) <= 1e-9
    assert abs(fourier.lovasz_bound(2) - 5.0) <= 1e-9
    assert lpbound.max_code(2, math.inf)[0] == 5
    assert lpbound.max_code(1, math.inf)[0] == 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_08_composite_bound_soundness_sweep():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for d in list(range(1, 2 * n + 1)) + [math.inf]:
            size, witness = lpbound.max_code(n, d)
            bound = lpbound.composite_bound(n, d)
            # 5^(n/2) factors are irrational, so equality cases sit one
            # rounding off; allow that much and no more
            assert bound >= size * (1.0 - 1e-9), (n, d, size, bound)
            # the size is attained by a code of that distance, and the
            # lex-first one starts with the zero word
            assert len(witness) == size, (n, d)
            assert witness[0] == (0,) * n, (n, d)
            for x, y in itertools.combinations(witness, 2):
                assert construction.word_distance(x, y) >= d, (n, d, x, y)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_structured_weight_equals_direct_weight():
    for n in (1, 2, 3):
        words = list(itertools.product(range(5), repeat=n))
        for u1 in words:
            for nu in words:
                direct = construction.word_weight(
                    u1 + tuple((2 * a + v) % 5 for a, v in zip(u1, nu))
                )
                assert construction.structured_weight(u1, nu) == direct, (u1, nu)


def test_criterion_10_union_bound_dominates_simulation():
    t0 = time.perf_counter()
    gen = construction.StructuredGenerator(2, 1, [[1, 2]])
    pe_bound = construction.union_bound(construction.weight_spectrum(gen)) / 2.0
    assert pe_bound == 1.125
    code = construction.code_from_generator(gen)
    result = channel.monte_carlo_pe(code, 10**6, seed=0)
    assert result.estimate <= pe_bound + 3.0 * result.ci95

    for pair, dist in ([[(0, 0, 0), (1, 1, 0)], 2], [[(0, 0, 0, 0), (1, 1, 1, 0)], 3]):
        rate = 2.0 ** (-dist - 1)
        sim = channel.monte_carlo_pe(pair, 10**6, seed=0)
        sigma = math.sqrt(rate * (1.0 - rate) / 10**6)
        assert abs(sim.estimate - rate) <= 3.0 * sigma, (dist, sim.estimate)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_figure_table_is_ordered_and_reproducible(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["figure1", "--output", str(first)]) == 0
    assert cli.main(["figure1", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    sampled = curves.sample_curves(C0, C, 161)
    table = {c.name: [p[1] for p in c.points] for c in sampled}
    for name, vals in table.items():
        assert len(vals) == 161
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12, name
    for low, high in (
        ("E_rex", "E_gv_star"),
        ("E_sl_star", "E_sl"),
        ("E_gv_star", "E_sl_star"),
    ):
        for a, b in zip(table[low], table[high]):
            assert a <= b + 1e-12, (low, high)


def test_criterion_12_gv_anchor_recovers_r_star():
    assert abs(construction.gv_delta(0.0) - 0.8) <= 1e-6
    r = bisect_root(lambda t: construction.gv_delta(t) - 0.75, 0.0, 0.5)
    mapped = curves.LOG5 * (1.0 + r) / 2.0
    assert abs(mapped - curves.r_star()) <= 1e-6


def test_trend_lp_and_multiplier_gaps_shrink_with_n():
    limit = curves.r_lp1(0.3)
    assert abs(limit - 0.3685888290754905) <= 1e-12
    lp_gaps = []
    mrrw_gaps = []
    for n in (10, 20, 40):
        d = math.ceil(0.3 * n)
        sol = lpbound.solve_distance_lp(n, d)
        lp_gaps.append(math.log2(sol.objective) / n - limit)
        t, a, _ = lpbound.mrrw_params(n, d)
        cert = lpbound.mrrw_certificate(n, d, t, a)
        assert cert.objective >= sol.objective
        mrrw_gaps.append(math.log2(cert.objective) / n - limit)
    for expected, got in zip((0.412766, 0.313665, 0.223551), lp_gaps):
        assert abs(got - expected) <= 1e-6
    assert lp_gaps[0] > lp_gaps[1] > lp_gaps[2] > 0.0
    assert mrrw_gaps[0] > mrrw_gaps[1] > mrrw_gaps[2] > 0.0
