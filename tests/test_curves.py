"""Bound curves over the rate window [log2 sqrt5, log2(5/2)]."""

import math

import pytest

from typewriter_bounds import curves
from typewriter_bounds.curves import (
    CAPACITY,
    CURVE_COLUMNS,
    GV_SLOPE,
    LOG5,
    SL_STAR_FACTOR,
    ZERO_ERROR_CAPACITY,
    curves_csv,
    delta_of_r,
    e_gv_star,
    e_lp1,
    e_rex,
    e_sl,
    e_sl_star,
    r_lp1,
    r_star,
    sample_curves,
)

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
    from typewriter_bounds.scalars import qary_entropy

    want = LOG5 - 0.5 * qary_entropy(0.25, 2.0) - 0.75
    assert r_star() == pytest.approx(want, abs=1e-12)
    assert r_star() == pytest.approx(1.1662890326577957, abs=1e-12)


def test_e_gv_star_branches():
    # below r_star the curve runs above the expurgated line, above it they agree
    assert e_gv_star(C0) == pytest.approx(GV_SLOPE * 0.4, abs=1e-9)
    assert e_gv_star(C0) > e_rex(C0)
    for r in (1.2, 1.25, C):
        assert e_gv_star(r) == e_rex(r)


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
    assert r_lp1(q, 0.3) == pytest.approx(0.3685888290754905, abs=1e-12)
    # delta = 0 gives the full rate log2 q, delta at the Plotkin point gives 0
    assert r_lp1(q, 0.0) == pytest.approx(math.log2(q), abs=1e-12)
    assert r_lp1(q, (q - 1.0) / q) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        r_lp1(1.0, 0.3)
    with pytest.raises(ValueError):
        r_lp1(q, 1.5)


def test_sample_curves_grid_and_validation():
    sampled = sample_curves(C0, C, 5)
    assert tuple(c.name for c in sampled) == CURVE_COLUMNS
    rates = [p[0] for p in sampled[0].points]
    assert len(rates) == 5
    assert rates[0] == C0 and rates[-1] == C
    with pytest.raises(ValueError):
        sample_curves(C0, C, 1)
    with pytest.raises(ValueError):
        sample_curves(C, C0, 5)
    with pytest.raises(ValueError):
        sample_curves(0.5, C, 5)


def test_curves_csv_layout():
    sampled = sample_curves(C0, C, 3)
    text = curves_csv(sampled, header_comment="params here")
    lines = text.splitlines()
    assert lines[0] == "# params here"
    assert lines[1] == "R," + ",".join(CURVE_COLUMNS)
    assert len(lines) == 2 + 3
    assert text.endswith("\n")
    first = lines[2].split(",")
    assert len(first) == 6
    assert float(first[0]) == C0
    assert float(first[2]) == 1.0  # e_sl at the left endpoint

    plain = curves_csv(sampled)
    assert plain.splitlines()[0].startswith("R,")


def test_fmt_round_trips_and_keeps_the_sign_of_infinity():
    assert curves._fmt(math.inf) == "inf"
    assert curves._fmt(-math.inf) == "-inf"
    assert curves._fmt(math.nan) == "nan"
    for x in (0.1, -2.5e-300, 1.0 / 3.0, 2521034.6577171395):
        assert float(curves._fmt(x)) == x


def test_curves_csv_rejects_mismatched_input():
    sampled = sample_curves(C0, C, 3)
    with pytest.raises(ValueError):
        curves_csv(sampled[:3])
    other = sample_curves(C0, C, 4)
    mixed = sampled[:4] + [other[4]]
    with pytest.raises(ValueError):
        curves_csv(mixed)
