"""Group Fourier analysis on Z_5^n and the theta-type bound."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typewriter_bounds.fourier import (
    dft,
    freq_sphere_indicator,
    idft,
    lovasz_assignment,
    lovasz_bound,
    symbol_count,
)
from typewriter_bounds.lpbound import _CUBE, _CUBE_IDFT, _HALF, _HALF_DFT, _SPHERE, _apply_axes
from typewriter_bounds.scalars import QPRIME


def _random_function(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(5,) * n) + 1j * rng.normal(size=(5,) * n)


def test_transforms_refuse_arrays_that_are_not_functions_on_z5n():
    for transform in (dft, idft):
        for shape in ((25,), (5, 4)):
            with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} is not \(5,\)\*n"):
                transform(np.zeros(shape))
        with pytest.raises(ValueError, match="need n >= 1"):
            transform(np.array(1.0))
        # 5^11 words are refused from the shape alone, before any copy
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"q\^n = 48828125 exceeds guard 10000000"):
                transform(np.broadcast_to(0.0, (5,) * 11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, transform.__name__


@pytest.mark.parametrize("n", [0, -1])
def test_dense_functions_refuse_lengths_below_one(n):
    for call in (lovasz_assignment, lambda n: symbol_count(n, (2, 3))):
        with pytest.raises(ValueError, match="need n >= 1"):
            call(n)


def test_dft_matches_fft_oracle():
    f = _random_function(2, seed=3)
    fhat = dft(f)
    # with the +i kernel the transform is q^n times numpy's inverse FFT
    assert np.allclose(fhat, 25.0 * np.fft.ifftn(f), atol=1e-12)
    # and the definition, summed directly
    for w in itertools.product(range(5), repeat=2):
        direct = sum(
            f[x] * np.exp(2j * np.pi * (w[0] * x[0] + w[1] * x[1]) / 5)
            for x in itertools.product(range(5), repeat=2)
        )
        assert abs(fhat[w] - direct) <= 1e-12 * np.abs(f).sum()


def test_idft_inverts_dft():
    for n in (1, 2):
        f = _random_function(n, seed=n * 5)
        back = idft(dft(f))
        assert np.allclose(back, f, atol=1e-12)


@settings(deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_sliced_kernels_transform_functions_on_sub_cubes(n, seed):
    # lpbound's certificate transforms: a function on {0, +-2}^n inverted onto
    # {0, +-1}^n, and a function on {0, +-1}^n transformed at {0, 1, 2}^n
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(3,) * n) + 1j * rng.normal(size=(3,) * n)
    tol = 1e-12 * np.abs(vals).sum()
    cube, sphere, half = (np.ix_(*(symbols,) * n) for symbols in (_CUBE, _SPHERE, _HALF))

    dense = np.zeros((5,) * n, dtype=np.complex128)
    dense[sphere] = vals
    want = np.fft.fftn(dense)[cube] / 5**n
    got = _apply_axes(vals, _CUBE_IDFT)
    assert got.shape == (3,) * n
    assert np.abs(got - want).max() <= tol / 5**n

    dense = np.zeros((5,) * n, dtype=np.complex128)
    dense[cube] = vals
    want = 5**n * np.fft.ifftn(dense)[half]
    got = _apply_axes(vals, _HALF_DFT)
    assert got.shape == (3,) * n
    assert np.abs(got - want).max() <= tol


def test_parseval():
    f = _random_function(2, seed=9)
    lhs = np.vdot(dft(f), dft(f))
    rhs = 25.0 * np.vdot(f, f)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_lovasz_assignment_structure():
    g = lovasz_assignment(1)
    phi = 1.0 / (2.0 * math.cos(math.pi / 5.0))
    assert g[(0,)] == pytest.approx(1.0, abs=0)
    assert g[(1,)] == pytest.approx(phi, abs=1e-15)
    assert g[(4,)] == pytest.approx(phi, abs=1e-15)
    assert g[(2,)] == 0.0
    g2 = lovasz_assignment(2)
    assert g2[(1, 4)] == pytest.approx(phi * phi, abs=1e-15)


def test_lovasz_assignment_transform_is_nonnegative():
    for n in (1, 2):
        ghat = dft(lovasz_assignment(n))
        assert np.abs(ghat.imag).max() <= 1e-12
        assert ghat.real.min() >= -1e-12


def test_lovasz_bound_values():
    assert lovasz_bound(1) == pytest.approx(math.sqrt(5.0), abs=1e-9)
    assert lovasz_bound(2) == pytest.approx(5.0, abs=1e-9)
    assert lovasz_bound(3) == pytest.approx(5.0 * math.sqrt(5.0), abs=1e-8)
    with pytest.raises(ValueError):
        lovasz_bound(0)


def test_sphere_size_and_indicator():
    ind = freq_sphere_indicator(3, 1)
    assert ind.sum() == math.comb(3, 1) * 2**1
    assert ind[(2, 0, 0)] == 1.0
    assert ind[(3, 0, 0)] == 1.0
    assert ind[(1, 0, 0)] == 0.0
    assert ind[(2, 3, 0)] == 0.0


@settings(deadline=None)
@given(n=st.integers(1, 4))
def test_freq_sphere_indicators_partition_the_half_alphabet_cube(n):
    inds = [freq_sphere_indicator(n, ell) for ell in range(n + 1)]
    for ell, ind in enumerate(inds):
        assert ind.sum() == math.comb(n, ell) * 2**ell
    # disjoint, covering exactly {0, +-2}^n, each word on the sphere of its
    # nonzero count
    for x in itertools.product(range(5), repeat=n):
        on = [ell for ell, ind in enumerate(inds) if ind[x] == 1.0]
        assert all(ind[x] in (0.0, 1.0) for ind in inds)
        if set(x) <= {0, 2, 3}:
            assert on == [sum(v != 0 for v in x)], x
        else:
            assert on == [], x


@pytest.mark.parametrize("ell", [3, -1])
def test_both_sphere_evaluators_refuse_a_degree_outside_0_to_n(ell):
    with pytest.raises(ValueError, match=rf"sphere index {ell} not in 0\.\.2"):
        freq_sphere_indicator(2, ell)


def test_effective_alphabet_parameter_is_sqrt5():
    assert QPRIME == 1.0 + 1.0 / math.cos(math.pi / 5.0)
    assert QPRIME == math.sqrt(5.0)
