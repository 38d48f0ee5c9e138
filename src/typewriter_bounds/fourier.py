"""Fourier analysis on Z_5^n used by the linear-programming code bounds.

Transforms use the symmetric kernel exp(+2 pi i <w, x> / 5), so dft is 5^n
times numpy's inverse FFT and idft is numpy's forward FFT over 5^n.  These
dense 5^n transforms serve the self-checks and the tests; lpbound checks
its certificate with 3 x 3 blocks of the same kernels instead, on the 3^n
words where the certificate and its transform take every value.

The transform of the ell-th frequency sphere (freq_sphere_indicator) at a
word of {0, +-1}^n with u nonzero entries is (2 cos(pi/5))^ell K_ell(u; n,
sqrt 5), the identity that turns the Fourier-side certificate into the
Krawtchouk LP; the self-checks compare dft of the indicator with it.

The central object is the product witness function that is 1 at the origin
and 1/(2 cos(pi/5)) at the 2n words that differ from it by one cyclic step:
its transform vanishes identically on the frequency spheres with all nonzero
entries equal to +-2, which is what lets sphere-supported multipliers be
folded in without disturbing nonnegativity, and its ratio 5^n f(0)/f_hat(0)
reproduces the theta-function value (5 cos(pi/5)/(1 + cos(pi/5)))^n of the
5-cycle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupFunction",
    "dft",
    "idft",
    "inner",
    "lovasz_assignment",
    "lovasz_bound",
    "symbol_count",
    "freq_sphere_indicator",
]

_SIZE_GUARD = 10**7
_Q = 5
_COS = math.cos(math.pi / _Q)


@dataclass(frozen=True)
class GroupFunction:
    """Dense complex function on Z_5^n, stored as a (5,)*n array."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_size(self.n)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (_Q,) * self.n:
            raise ValueError(f"values shape {vals.shape} != {(_Q,) * self.n}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, word) -> complex:
        if len(word) != self.n or not all(isinstance(c, numbers.Integral) for c in word):
            raise ValueError(f"word {tuple(word)!r} not in Z_5^{self.n}")
        return complex(self.values[tuple(c % _Q for c in word)])


def _check_size(n: int) -> None:
    """Refuse Z_5^n for n < 1, or before allocating anything of size 5^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if _Q**n > _SIZE_GUARD:
        raise ValueError(f"q^n = {_Q**n} exceeds guard {_SIZE_GUARD}")


def dft(f: GroupFunction) -> GroupFunction:
    """f_hat(w) = sum_x f(x) exp(+2 pi i <w, x> / 5)."""
    return GroupFunction(f.n, _Q**f.n * np.fft.ifftn(f.values))


def idft(f: GroupFunction) -> GroupFunction:
    """Inverse of dft: 5^-n sum_w f(w) exp(-2 pi i <w, x> / 5)."""
    return GroupFunction(f.n, np.fft.fftn(f.values) / _Q**f.n)


def inner(f: GroupFunction, g: GroupFunction) -> complex:
    """(f, g) = 5^-n sum_x conj(f(x)) g(x)."""
    if f.n != g.n:
        raise ValueError("mismatched domains")
    return complex(np.vdot(f.values, g.values) / _Q**f.n)


def lovasz_assignment(n: int) -> GroupFunction:
    """Product witness: 1 at 0 and 1/(2 cos(pi/5)) at single cyclic steps.

    Built as the n-fold product of the one-letter assignment, so g(x) =
    phi^(number of nonzero coordinates) on {0, +-1}^n and 0 elsewhere.
    """
    _check_size(n)
    phi = 1.0 / (2.0 * _COS)
    one = np.array([1.0, phi, 0.0, 0.0, phi])
    return GroupFunction(n, functools.reduce(np.multiply.outer, (one,) * n))


def lovasz_bound(n: int) -> float:
    """Theta-type zero-error bound (5 cos(pi/5) / (1 + cos(pi/5)))^n = 5^(n/2).

    The Lovasz theta function of the 5-cycle, raised to the blocklength.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return (_Q * _COS / (1.0 + _COS)) ** n


def symbol_count(n: int, symbols) -> np.ndarray:
    """Number of coordinates in symbols, for all words of Z_5^n at once.

    A word with a nonzero coordinate outside symbols counts above n.  One
    n-fold outer sum of the per-symbol table (0 at 0, 1 on symbols, n + 1
    elsewhere), with no per-word loop.  The int8 sums cannot wrap: the size
    guard keeps n (n + 1) below 128.
    """
    _check_size(n)
    table = np.full(_Q, n + 1, dtype=np.int8)
    table[0] = 0
    table[list(symbols)] = 1
    return functools.reduce(np.add.outer, (table,) * n)


def freq_sphere_indicator(n: int, ell: int) -> GroupFunction:
    """Indicator of words with ell coordinates equal to +-2, the rest 0."""
    if not isinstance(ell, numbers.Integral) or not 0 <= ell <= n:
        raise ValueError(f"sphere index {ell!r} not in 0..{n}")
    return GroupFunction(n, symbol_count(n, (2, 3)) == ell)
