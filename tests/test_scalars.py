"""Scalar helpers: entropies, log-binomials, root finding, Krawtchouks."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from typewriter_bounds.scalars import (
    _binomial_row,
    bisect_root,
    krawtchouk,
    krawtchouk_recurrence,
    log2_binomial,
    qary_entropy,
)

LOG5 = math.log2(5.0)


def test_binary_entropy_anchors():
    assert qary_entropy(0.5, 2.0) == 1.0
    assert qary_entropy(0.0, 2.0) == 0.0
    assert qary_entropy(1.0, 2.0) == 0.0
    # closed form behind the distance anchor delta = 2/5
    assert abs(qary_entropy(0.8, 2.0) + 1.6 - LOG5) <= 1e-14


def test_entropy_symmetry_at_matched_arguments():
    # H2(3/4) = H2(1/4) drives the rate-anchor identity
    assert qary_entropy(0.75, 2.0) == pytest.approx(qary_entropy(0.25, 2.0), abs=1e-15)


def test_qary_entropy_peaks_at_uniform():
    for q in (3.0, 5.0, math.sqrt(5.0)):
        peak = (q - 1.0) / q
        assert qary_entropy(peak, q) == pytest.approx(math.log2(q), abs=1e-12)
        assert qary_entropy(peak - 0.05, q) < math.log2(q)


def test_log2_binomial_small_and_large():
    assert log2_binomial(5, 2) == pytest.approx(math.log2(10.0), abs=1e-12)
    assert log2_binomial(10, 0) == 0.0
    assert log2_binomial(10, 10) == 0.0
    # the exact and lgamma regimes agree where they hand over
    direct = math.log2(math.comb(70, 35))
    assert log2_binomial(70, 35) == pytest.approx(direct, abs=1e-9)


def test_log2_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log2_binomial(5, 6)
    with pytest.raises(ValueError):
        log2_binomial(5, -1)


def test_bisect_root_simple_root():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_bisect_root_accepts_endpoint_roots():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_root_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_real_binomial_values():
    assert _binomial_row(5.5, 0)[0] == 1.0
    assert _binomial_row(5.5, 2)[2] == pytest.approx(5.5 * 4.5 / 2.0, abs=1e-12)
    assert _binomial_row(3.0, 3)[3] == pytest.approx(1.0, abs=1e-12)
    # the row stops at its last nonzero entry, C(2, 2)
    assert _binomial_row(2.0, 3) == [1.0, 2.0, 1.0]


def test_krawtchouk_low_degrees():
    q = 1.0 + 1.0 / math.cos(math.pi / 5.0)
    for n in (4, 8):
        for u in range(n + 1):
            assert krawtchouk(n, 0, u) == pytest.approx(1.0, abs=1e-12)
            want = (q - 1.0) * n - q * u
            assert krawtchouk(n, 1, u) == pytest.approx(want, abs=1e-10)


def test_krawtchouk_direct_matches_recurrence():
    for n in (3, 8):
        for ell in range(n + 1):
            for u in range(n + 1):
                a = krawtchouk(n, ell, u)
                b = krawtchouk_recurrence(n, ell, u)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_krawtchouk_generating_sum_at_zero():
    # sum_ell K_ell(0) x^ell = (1 + (q-1)x)^n at x = 1
    q = math.sqrt(5.0)
    n = 6
    total = math.fsum(krawtchouk(n, ell, 0) for ell in range(n + 1))
    assert total == pytest.approx(q**n, rel=1e-12)


def _falling_binomial(u, j):
    """C(u, j) one value at a time, as the package computed it before rows."""
    if isinstance(u, int) or float(u).is_integer():
        ui = int(round(u))
        if 0 <= ui:
            return float(math.comb(ui, j)) if j <= ui else 0.0
    p = 1.0
    for i in range(j):
        p *= u - i
    return p / math.factorial(j)


def _scan_grid(top):
    # the points first_root visits, accumulated exactly as it does
    grid, u = [0.0], 0.05
    while u <= top + 0.05:
        grid.append(u)
        u += 0.05
    return grid


@given(
    n=st.integers(0, 64),
    ell_share=st.floats(0.0, 1.0),
    u=st.one_of(
        st.integers(-70, 70),
        st.floats(-70.0, 70.0),
        st.sampled_from(_scan_grid(64)),
    ),
)
def test_krawtchouk_is_the_termwise_sum_bit_for_bit(n, ell_share, u):
    qprime = 1.0 + 1.0 / math.cos(math.pi / 5.0)
    ell = round(ell_share * n)
    terms = []
    for j in range(ell + 1):
        cu = _falling_binomial(u, j)
        cn = _falling_binomial(n - u, ell - j)
        row = _binomial_row(u, j)
        # an entry past the end of the row is absent, that is 0
        assert (row[j] if j < len(row) else 0.0) == cu
        if cu == 0.0 or cn == 0.0:
            continue
        terms.append((-1.0) ** j * (qprime - 1.0) ** (ell - j) * cu * cn)
    assert krawtchouk(n, ell, u) == math.fsum(terms)
