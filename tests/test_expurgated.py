"""Blocklength-2 expurgated-exponent machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from typewriter_bounds import expurgated
from typewriter_bounds.construction import INF, word_distance
from typewriter_bounds.curves import CAPACITY, LOG5
from typewriter_bounds.expurgated import (
    InputDistribution,
    circulant_eigenvalues,
    code_distribution,
    critical_rho,
    ex_exponent_inf,
    q_form,
    uniform_distribution,
    zero_error_code2,
)


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


def test_input_distribution_validation():
    with pytest.raises(ValueError):
        InputDistribution(3, {})
    with pytest.raises(ValueError):
        InputDistribution(1, {(0,): 0.5, (1,): 0.4})
    with pytest.raises(ValueError):
        InputDistribution(1, {(0,): 1.5, (1,): -0.5})
    with pytest.raises(ValueError):
        InputDistribution(2, {(0,): 1.0})  # word length must match n


def test_uniform_distribution_support():
    assert len(uniform_distribution(1).support) == 5
    assert len(uniform_distribution(2).support) == 25


def test_q_form_uniform_single_letter_closed_form():
    u1 = uniform_distribution(1)
    for rho in (1.0, 1.7, 3.0):
        want = (1.0 + 2.0 ** (1.0 - 1.0 / rho)) / 5.0
        assert q_form(rho, u1) == pytest.approx(want, abs=1e-12)


def test_q_form_on_zero_error_code_is_exact():
    dist = code_distribution(zero_error_code2())
    for rho in (1.0, 1.5, 3.0):
        got = q_form(rho, dist)
        assert isinstance(got, Fraction)
        assert got == Fraction(1, 5)


def test_code_distribution_refuses_an_empty_code():
    with pytest.raises(ValueError, match="empty code"):
        code_distribution([])


def test_zero_error_code2_witness():
    code = zero_error_code2()
    assert code == [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]
    for i, x in enumerate(code):
        for y in code[i + 1:]:
            assert word_distance(x, y) == INF


def test_e_ex2_is_the_sup_over_rho():
    r = 1.25
    grid = [1.0 + 4.0 * i / 80 for i in range(81)]
    sup = max(ex_exponent_inf(rho) - rho * r for rho in grid)
    assert sup == pytest.approx(CAPACITY - r, abs=1e-12)
