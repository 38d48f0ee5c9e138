"""Bound curves over the rate window [log2 sqrt5, log2(5/2)]."""

import math
from decimal import Decimal, localcontext

import pytest

from typewriter_bounds import __version__, curves
from typewriter_bounds.cli import main
from typewriter_bounds.curves import (
    CAPACITY,
    CURVE_COLUMNS,
    GV_SLOPE,
    SL_STAR_FACTOR,
    ZERO_ERROR_CAPACITY,
    delta_of_r,
    e_gv_star,
    e_lp1,
    e_rex,
    e_sl,
    e_sl_star,
    gv_delta,
    optimize_exponent,
    r_lp1,
    r_star,
    sample_curves,
)
from typewriter_bounds.scalars import LOG5, QPRIME, bisect_root, qary_entropy

C0 = ZERO_ERROR_CAPACITY
C = CAPACITY


def test_constants():
    assert C0 == pytest.approx(0.5 * LOG5, abs=0)
    assert C == pytest.approx(LOG5 - 1.0, abs=0)
    assert GV_SLOPE == pytest.approx(0.4150374992788437, abs=1e-15)
    assert SL_STAR_FACTOR == pytest.approx(1.0 - 1.0 / math.sqrt(5.0), abs=0)


def test_linear_curves_at_the_endpoints():
    assert e_rex(C0) == pytest.approx(C - C0, abs=1e-15)
    assert e_rex(C) == 0.0
    assert e_sl(C0) == 1.0
    assert e_sl(C) == 0.0
    assert e_sl_star(C0) == pytest.approx(SL_STAR_FACTOR, abs=1e-15)
    assert e_sl_star(C) == 0.0


def test_rate_domain_is_enforced():
    for bad in (C0 - 1e-6, C + 1e-6, 0.0, 2.0):
        with pytest.raises(ValueError):
            e_rex(bad)
        with pytest.raises(ValueError):
            e_sl(bad)
    # within 1e-12 of an endpoint is clamped, not rejected
    assert e_sl(C + 1e-13) == 0.0


def test_delta_of_r_anchors_and_monotonicity():
    assert delta_of_r(C0) == pytest.approx(0.4, abs=1e-9)
    assert delta_of_r(r_star()) == pytest.approx(0.375, abs=1e-9)
    assert delta_of_r(1.1646) == pytest.approx(0.3794376079047651, abs=1e-9)
    mid = 0.5 * (C0 + r_star())
    assert 0.375 < delta_of_r(mid) < 0.4


def test_r_star_value():
    want = LOG5 - 0.5 * qary_entropy(0.25, 2.0) - 0.75
    assert r_star() == pytest.approx(want, abs=1e-12)
    assert r_star() == pytest.approx(1.1662890326577957, abs=1e-12)


def test_figure1_claims_hold_in_50_digit_arithmetic():
    # closed forms in stdlib decimal against the float curves; module
    # attributes are read through `curves` so that a patched constant shows
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def log2(x):
            return Decimal(x).ln() / ln2

        def h2(t):
            return -(t * log2(t) + (1 - t) * log2(1 - t))

        def close(got, want, ulps=4):
            return abs(Decimal(got) - want) <= ulps * Decimal(math.ulp(float(want)))

        # GV slope 4/3 - H2(1/3) = 2 - log2 3
        slope = 2 - log2(3)
        assert close(curves.GV_SLOPE, slope)
        # r_star = log2 5 - H2(1/4)/2 - 3/4 with H2(1/4) = 2 - (3/4) log2 3
        assert close(curves.r_star(), log2(5) + Decimal(3) / 8 * log2(3) - Decimal(7) / 4)
        # both upper bounds start at the Plotkin point 1 - 1/sqrt5
        top = 1 - 1 / Decimal(5).sqrt()
        assert close(curves.e_lp1(C0), top)
        assert close(curves.e_sl_star(C0), top)

        # the gain over the expurgated line: at R(d) = log2 5 - 2d - H2(2d)/2,
        # e_gv_star - e_rex = D(d) = 1 - d log2 3 - H2(2d)/2 on [3/8, 2/5]
        def gain(d):
            return 1 - d * log2(3) - h2(2 * d) / 2

        for k in range(9):
            d = Decimal(3) / 8 + Decimal(k) / 320
            r = float(log2(5) - 2 * d - h2(2 * d) / 2)
            # e_gv_star is GV_SLOPE times the bisected delta; take out the
            # bisection's own error, which bisect_root bounds by 1e-12
            d_float = curves.delta_of_r(r)
            assert abs(Decimal(d_float) - d) <= Decimal("1e-12")
            got = (
                Decimal(curves.e_gv_star(r))
                - Decimal(curves.GV_SLOPE) * (Decimal(d_float) - d)
                - Decimal(curves.e_rex(r))
            )
            assert abs(got - gain(d)) <= 4 * Decimal(math.ulp(1.0)), k

        # D is convex with a double root at 3/8: D' = -log2 3 - log2((1 - 2d)/(2d))
        # and D'' = (2/(1 - 2d) + 1/d)/ln 2, each against a central difference
        def slope_of_gain(d):
            return -log2(3) - log2((1 - 2 * d) / (2 * d))

        def curvature(d):
            return (2 / (1 - 2 * d) + 1 / d) / ln2

        eighth3 = Decimal(3) / 8
        assert abs(gain(eighth3)) <= Decimal("1e-45")
        assert abs(slope_of_gain(eighth3)) <= Decimal("1e-45")
        h = Decimal("1e-12")
        for k in range(9):
            d = eighth3 + Decimal(k) / 320
            assert abs((gain(d + h) - gain(d - h)) / (2 * h) - slope_of_gain(d)) <= Decimal("1e-20")
            second = (gain(d + h) - 2 * gain(d) + gain(d - h)) / (h * h)
            assert abs(second - curvature(d)) <= Decimal("1e-20")
            assert curvature(d) > 0


def test_e_gv_star_branches():
    # below r_star the curve runs above the expurgated line, above it they agree
    assert e_gv_star(C0) == pytest.approx(GV_SLOPE * 0.4, abs=1e-9)
    assert e_gv_star(C0) > e_rex(C0)
    for r in (1.2, 1.25, C):
        assert e_gv_star(r) == e_rex(r)


def test_upper_curves_dominate_lower_curves_on_the_whole_window():
    # every curve decreases, so on a cell [a, b] an upper curve is at least
    # its value at b and a lower curve at most its value at a: upper(b) >=
    # lower(a) on each cell orders the curves on the whole cell
    def cell_margin(uppers, lo, hi, cells=200):
        grid = [lo + (hi - lo) * i / cells for i in range(cells)] + [hi]
        up = [min(f(r) for f in uppers) for r in grid]
        low = [max(e_rex(r), e_gv_star(r)) for r in grid]
        for values in (up, low):
            assert all(x >= y for x, y in zip(values, values[1:]))
        return min(u - v for u, v in zip(up[1:], low))

    rs = r_star()
    assert cell_margin((e_sl, e_sl_star, e_lp1), C0, rs) > 0.0
    assert cell_margin((e_lp1,), rs, C) > 0.0
    # past r_star both lower curves are the line e_rex, and e_sl and
    # e_sl_star are lines that meet it at C, so the differences are linear
    # there and their two ends bound them
    for f in (e_sl, e_sl_star):
        assert f(rs) - e_rex(rs) > 0.0
        assert f(C) - e_rex(C) == 0.0


def test_gv_delta_anchors():
    assert gv_delta(0.0) == pytest.approx(0.8, abs=1e-9)
    assert gv_delta(0.5) < gv_delta(0.1) < 0.8
    with pytest.raises(ValueError):
        gv_delta(1.0)
    with pytest.raises(ValueError):
        gv_delta(-0.1)


def test_gv_delta_zeroes_the_spectrum_exponent():
    for r in (0.0, 0.2, 0.5, 0.9):
        delta = gv_delta(r)
        exponent = (r - 1.0) * LOG5 + qary_entropy(delta, 2.0) + 2.0 * delta
        assert exponent == pytest.approx(0.0, abs=1e-9)


def test_optimize_exponent_branches_agree_at_the_switch():
    r_switch = bisect_root(lambda t: gv_delta(t) - 0.75, 0.0, 0.5)
    lo = optimize_exponent(r_switch - 1e-9)
    hi = optimize_exponent(r_switch + 1e-9)
    assert abs(lo.exponent - hi.exponent) <= 1e-6
    assert lo.exponent == pytest.approx(0.311278, abs=1e-5)
    assert hi.delta_star == 0.75
    assert lo.tau_star == hi.tau_star == pytest.approx(1.0 / 3.0, abs=0)


def test_optimize_exponent_at_zero_rate():
    res = optimize_exponent(0.0)
    assert res.delta_gv == pytest.approx(0.8, abs=1e-9)
    assert res.delta_star == res.delta_gv
    assert res.exponent == pytest.approx(0.8 * GV_SLOPE, abs=1e-9)


def test_delta_of_r_is_half_the_gv_distance():
    # with d = 2 delta, delta_of_r's equation log5 - 2 delta - H2(2 delta)/2 = R
    # is gv_delta's log5 - H2(d) - 2d = r log5 at r = 2R/log5 - 1; the two
    # bisections each stop within 1e-12 of the root
    lo, hi = C0, r_star()
    for i in range(201):
        rate = hi if i == 200 else lo + (hi - lo) * i / 200
        assert abs(delta_of_r(rate) - gv_delta(2.0 * rate / LOG5 - 1.0) / 2.0) <= 1e-12, rate


def test_e_lp1_frozen_values():
    assert e_lp1(C0) == pytest.approx(1.0 - 1.0 / math.sqrt(5.0), abs=1e-12)
    assert e_lp1(1.2) == pytest.approx(0.4894154984381661, abs=1e-9)
    assert e_lp1(1.25) == pytest.approx(0.44908750149974996, abs=1e-9)
    assert e_lp1(1.3) == pytest.approx(0.4165654910132749, abs=1e-9)
    assert e_lp1(C) == pytest.approx(0.4036119866671166, abs=1e-9)
    assert e_lp1(LOG5) == 0.0


def test_e_lp1_domain_extends_to_log5():
    assert e_lp1(1.5) > e_lp1(2.0) > 0.0
    with pytest.raises(ValueError):
        e_lp1(LOG5 + 1e-6)


def test_r_lp1_values_and_validation():
    q = math.sqrt(5.0)
    assert r_lp1(0.3) == pytest.approx(0.3685888290754905, abs=1e-12)
    # delta = 0 gives the full rate log2 q, delta at the Plotkin point gives 0
    assert r_lp1(0.0) == pytest.approx(math.log2(q), abs=1e-12)
    assert r_lp1((q - 1.0) / q) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        r_lp1(1.5)


def test_r_lp1_refuses_delta_past_the_plotkin_point():
    # the formula's other branch would grow with distance: 0.6817 at 0.9
    plotkin = (QPRIME - 1.0) / QPRIME
    for delta in (0.9, 1.0, math.nextafter(plotkin, 1.0), math.nan, -1e-12):
        with pytest.raises(ValueError, match="delta"):
            r_lp1(delta)
    rates = [r_lp1(plotkin * i / 200) for i in range(201)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    # e_lp1 bisects up to the Plotkin point; the goldens need it to be 1 - 1/q'
    assert plotkin == 1.0 - 1.0 / QPRIME == SL_STAR_FACTOR == e_lp1(C0)
    assert r_lp1(plotkin) == pytest.approx(0.0, abs=1e-9)


def test_sample_curves_grid_and_validation():
    rows = sample_curves(C0, C, 5)
    assert len(rows) == 5
    assert all(len(row) == 1 + len(CURVE_COLUMNS) for row in rows)
    rates = [row[0] for row in rows]
    assert rates[0] == C0 and rates[-1] == C
    assert rates == [C0 + (C - C0) * i / 4 for i in range(4)] + [C]
    for row in rows:
        r = row[0]
        assert row[1:] == (e_rex(r), e_sl(r), e_sl_star(r), e_gv_star(r), e_lp1(r))
    with pytest.raises(ValueError, match="need at least two samples"):
        sample_curves(C0, C, 1)
    with pytest.raises(ValueError, match="empty rate window"):
        sample_curves(C, C0, 5)
    with pytest.raises(ValueError, match="rate 0.5 outside"):
        sample_curves(0.5, C, 5)


def test_curves_csv_layout(capsys):
    assert main(["curves", "--samples", "3"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == (
        f"# typewriter-bounds {__version__} curves "
        f"rmin={curves._fmt(C0)} rmax={curves._fmt(C)} samples=3"
    )
    assert lines[1] == "R," + ",".join(CURVE_COLUMNS)
    assert len(lines) == 2 + 3
    assert text.endswith("\n")
    first = lines[2].split(",")
    assert len(first) == 6
    assert float(first[0]) == C0
    assert float(first[2]) == 1.0  # e_sl at the left endpoint
    # every cell round-trips to the sampled row
    assert [tuple(map(float, line.split(","))) for line in lines[2:]] == sample_curves(C0, C, 3)


def test_fmt_round_trips_and_keeps_the_sign_of_infinity():
    assert curves._fmt(math.inf) == "inf"
    assert curves._fmt(-math.inf) == "-inf"
    assert curves._fmt(math.nan) == "nan"
    for x in (0.1, -2.5e-300, 1.0 / 3.0, 2521034.6577171395):
        assert float(curves._fmt(x)) == x
    # an integral float loses its point; anything but a float goes through str
    assert curves._fmt(3.0) == "3"
    assert curves._fmt(3) == "3"
    assert curves._fmt((1 << 128) - 1) == "340282366920938463463374607431768211455"
    assert curves._fmt(True) == "True" and curves._fmt(False) == "False"
    assert curves._fmt("pair.txt") == "pair.txt"
