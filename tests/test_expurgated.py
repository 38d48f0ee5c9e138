"""Blocklength-2 expurgated-exponent machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typewriter_bounds import expurgated
from typewriter_bounds.curves import CAPACITY
from typewriter_bounds.expurgated import (
    circulant_eigenvalues,
    critical_rho,
    ex_exponent_inf,
    q_form,
)
from typewriter_bounds.lpbound import max_code
from typewriter_bounds.scalars import INF, LOG5


def test_circulant_eigenvalues_match_dense_spectrum():
    for rho in (1.0, 1.3, critical_rho(), 2.0):
        eye = np.eye(5)
        kernel = eye + 2.0 ** (-1.0 / rho) * (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1))
        dense = np.sort(np.linalg.eigvalsh(kernel))
        closed = np.sort(circulant_eigenvalues(rho))
        assert np.allclose(dense, closed, atol=1e-12)


def test_critical_rho_flattens_the_smallest_eigenvalue():
    rho = critical_rho()
    assert rho == pytest.approx(math.log(2.0) / math.log(2.0 * math.cos(math.pi / 5.0)), abs=1e-15)
    assert min(circulant_eigenvalues(rho)) == pytest.approx(0.0, abs=1e-12)
    # PSD holds up to the critical order and fails just beyond it
    assert min(circulant_eigenvalues(rho - 0.05)) > 1e-4
    assert min(circulant_eigenvalues(rho + 0.05)) < -1e-4


def test_ex_exponent_inf_branches_meet():
    assert ex_exponent_inf(1.0) == pytest.approx(CAPACITY, abs=1e-12)
    rho = critical_rho()
    low = ex_exponent_inf(rho - 1e-9)
    high = ex_exponent_inf(rho + 1e-9)
    assert abs(low - high) <= 1e-7
    assert ex_exponent_inf(2.0) == pytest.approx(LOG5, abs=1e-12)


def test_q_form_refuses_malformed_codes():
    for code, reason in (
        ([], "empty code"),
        ([(0, 1), (2, 3), (0, 1)], "repeated codewords"),
        ([(0,), (1, 2)], "unequal length"),
        ([(0,), (5,)], "bad word"),
        ([(2.9,), (4,)], "bad word"),
        ([(0.7,), (1.2,)], "bad word"),
        ([(2.0,), (4,)], "bad word"),
    ):
        with pytest.raises(ValueError, match=reason):
            q_form(1.0, code)


def test_q_form_uniform_single_letter_closed_form():
    letters = [(a,) for a in range(5)]
    for rho in (1.0, 1.7, 3.0):
        want = (1.0 + 2.0 ** (1.0 - 1.0 / rho)) / 5.0
        assert q_form(rho, letters) == pytest.approx(want, abs=1e-12)


def test_q_form_on_zero_error_code_is_exact():
    code = max_code(2, INF)[1]
    for rho in (1.0, 1.5, 3.0):
        got = q_form(rho, code)
        assert isinstance(got, Fraction)
        assert got == Fraction(1, 5)


def _oracle_distance(x, y):
    """Number of coordinates moved by one step, None when some coordinate
    differs by two steps (the words are then non-confusable)."""
    steps = [(a - b) % 5 for a, b in zip(x, y)]
    if any(s in (2, 3) for s in steps):
        return None
    return sum(s != 0 for s in steps)


_CODES = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=12, unique=True
    )
)


@settings(deadline=None, max_examples=150)
@given(code=_CODES, rho=st.one_of(st.just(critical_rho()), st.floats(1.0, 6.0)))
def test_q_form_matches_the_pair_sum(code, rho):
    m = len(code)
    pairs = [(x, y, _oracle_distance(x, y)) for x in code for y in code]
    confusable = [d for _, _, d in pairs if d is not None]
    want = math.fsum(2.0 ** (-d / rho) / m**2 for d in confusable)
    got = q_form(rho, code)
    zero_error = all(d is None for x, y, d in pairs if x != y)
    assert isinstance(got, Fraction) == zero_error
    if zero_error:
        assert got == Fraction(1, m)
    assert float(got) == pytest.approx(want, rel=1e-13)


def test_e_ex2_is_the_sup_over_rho():
    r = 1.25
    grid = [1.0 + 4.0 * i / 80 for i in range(81)]
    sup = max(ex_exponent_inf(rho) - rho * r for rho in grid)
    assert sup == pytest.approx(CAPACITY - r, abs=1e-12)
