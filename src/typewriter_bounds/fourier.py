"""Fourier analysis on Z_q^n used by the linear-programming code bounds.

Transforms use the symmetric kernel exp(+2 pi i <w, x> / q), applied axis by
axis as a matrix product.  The dense q^n transforms serve the self-checks and
the tests; lpbound applies row or column slices of the same kernels to the
3^n words where its certificate lives, with the same per-axis product.

The central object is the product witness function that is 1 at the origin
and 1/(2 cos(pi/q)) at the 2n words that differ from it by one cyclic step:
its transform vanishes identically on the frequency spheres with all nonzero
entries equal to +-(q-1)/2, which is what lets sphere-supported multipliers
be folded in without disturbing nonnegativity, and its ratio
q^n f(0)/f_hat(0) reproduces the theta-function value
(q cos(pi/q)/(1 + cos(pi/q)))^n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .scalars import krawtchouk

__all__ = [
    "GroupFunction",
    "dft",
    "idft",
    "inner",
    "lovasz_assignment",
    "lovasz_bound",
    "symbol_count",
    "freq_sphere_indicator",
    "canonical_sphere_word",
    "sphere_transform",
    "sphere_transform_closed_form",
]

_SIZE_GUARD = 10**7


@dataclass(frozen=True)
class GroupFunction:
    """Dense complex function on Z_q^n, stored as a (q,)*n array."""

    n: int
    q: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.q < 5 or self.q % 2 == 0:
            raise ValueError(f"alphabet size {self.q} must be odd and >= 5")
        if self.n < 1:
            raise ValueError("need n >= 1")
        _check_size(self.n, self.q)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.q,) * self.n:
            raise ValueError(f"values shape {vals.shape} != {(self.q,) * self.n}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, word) -> complex:
        return complex(self.values[tuple(c % self.q for c in word)])


def _check_size(n: int, q: int) -> None:
    """Refuse Z_q^n before allocating anything of size q^n."""
    if q**n > _SIZE_GUARD:
        raise ValueError(f"q^n = {q**n} exceeds guard {_SIZE_GUARD}")


def _dft_kernel(q: int) -> np.ndarray:
    grid = np.arange(q)
    return np.exp(2j * np.pi * np.outer(grid, grid) / q)


def _idft_kernel(q: int) -> np.ndarray:
    grid = np.arange(q)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / q) / q


def _apply_axes(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Contract every axis of arr with the columns of kernel, in axis order.

    A rectangular (rows x cols) kernel maps axes of length cols to length
    rows, so a slice of a transform kernel transforms functions supported on
    a sub-cube, or evaluates the transform on one.
    """
    for axis in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(kernel, arr, axes=([1], [axis])), 0, axis)
    return arr


def dft(f: GroupFunction) -> GroupFunction:
    """f_hat(w) = sum_x f(x) exp(+2 pi i <w, x> / q)."""
    return GroupFunction(f.n, f.q, _apply_axes(f.values, _dft_kernel(f.q)))


def idft(f: GroupFunction) -> GroupFunction:
    """Inverse of dft: q^-n sum_w f(w) exp(-2 pi i <w, x> / q)."""
    return GroupFunction(f.n, f.q, _apply_axes(f.values, _idft_kernel(f.q)))


def inner(f: GroupFunction, g: GroupFunction) -> complex:
    """(f, g) = q^-n sum_x conj(f(x)) g(x)."""
    if (f.n, f.q) != (g.n, g.q):
        raise ValueError("mismatched domains")
    return complex(np.vdot(f.values, g.values) / f.q**f.n)


def lovasz_assignment(n: int, q: int) -> GroupFunction:
    """Product witness: 1 at 0 and 1/(2 cos(pi/q)) at single cyclic steps.

    Built as the n-fold product of the one-letter assignment, so g(x) =
    phi^(number of nonzero coordinates) on {0, +-1}^n and 0 elsewhere.
    """
    phi = 1.0 / (2.0 * math.cos(math.pi / q))
    one = np.zeros(q)
    one[0] = 1.0
    one[1] = phi
    one[-1] = phi
    vals = one
    for _ in range(n - 1):
        vals = np.multiply.outer(vals, one)
    return GroupFunction(n, q, vals)


def lovasz_bound(n: int, q: int) -> float:
    """Theta-type zero-error bound (q cos(pi/q) / (1 + cos(pi/q)))^n."""
    if q < 5 or q % 2 == 0:
        raise ValueError(f"alphabet size {q} must be odd and >= 5")
    if n < 1:
        raise ValueError("need n >= 1")
    c = math.cos(math.pi / q)
    return (q * c / (1.0 + c)) ** n


def symbol_count(n: int, q: int, symbols) -> np.ndarray:
    """Number of coordinates in symbols, for all words of Z_q^n at once.

    A word with a nonzero coordinate outside symbols counts above n.  One
    n-fold outer sum of the per-symbol table (0 at 0, 1 on symbols, n + 1
    elsewhere), with no per-word loop.  The int8 sums cannot wrap: the size
    guard keeps n (n + 1) below 128.
    """
    _check_size(n, q)
    table = np.full(q, n + 1, dtype=np.int8)
    table[0] = 0
    table[list(symbols)] = 1
    return functools.reduce(np.add.outer, (table,) * n)


def freq_sphere_indicator(n: int, q: int, ell: int) -> GroupFunction:
    """Indicator of words with ell coordinates equal to +-(q-1)/2, rest 0."""
    if not 0 <= ell <= n:
        raise ValueError(f"sphere index {ell} outside [0, {n}]")
    c = (q - 1) // 2
    return GroupFunction(n, q, symbol_count(n, q, (c, q - c)) == ell)


def canonical_sphere_word(n: int, u: int) -> tuple[int, ...]:
    """A representative with u leading ones: (1,...,1,0,...,0)."""
    if not 0 <= u <= n:
        raise ValueError(f"weight {u} outside [0, {n}]")
    return (1,) * u + (0,) * (n - u)


def sphere_transform(n: int, q: int, ell: int, x) -> float:
    """Transform of the ell-th frequency sphere at x, by direct summation.

    x must have entries in {0, 1, q-1}.  The sum over sphere members is real
    by the +- symmetry; the imaginary residue is checked and discarded.
    """
    x = tuple(c % q for c in x)
    if len(x) != n or any(c not in (0, 1, q - 1) for c in x):
        raise ValueError(f"word {x!r} is not in a unit sphere of Z_{q}^{n}")
    c = (q - 1) // 2
    total = 0.0 + 0.0j
    for positions in itertools.combinations(range(n), ell):
        for signs in itertools.product((c, q - c), repeat=ell):
            phase = sum(s * x[pos] for pos, s in zip(positions, signs))
            total += np.exp(2j * np.pi * phase / q)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise AssertionError(f"non-real sphere transform {total!r}")
    return float(total.real)


def sphere_transform_closed_form(n: int, q: int, ell: int, u: int) -> float:
    """(2 cos(pi/q))^ell K_ell(u; n, q') with q' = 1 + 1/cos(pi/q).

    For q = 5 the effective alphabet parameter q' equals sqrt 5 exactly.
    """
    c = math.cos(math.pi / q)
    qprime = 1.0 + 1.0 / c
    return (2.0 * c) ** ell * krawtchouk(n, ell, u, qprime)
