"""Expurgated-exponent analysis for the typewriter channel at blocklength 2.

The single-letter Bhattacharyya kernel of the channel is circulant: 1 on the
diagonal, 1/2 between cyclically adjacent inputs, 0 elsewhere.  Raised
elementwise to 1/rho it stays circulant, so its eigenvalues are explicit
cosine sums, no matrix is built, and the largest rho keeping it positive
semidefinite has the closed form log 2 / log(2 cos(pi/5)).  Below that
threshold the quadratic form is minimised by the uniform distribution and
the expurgated exponent carries no memory; above it, distributions
supported on a two-letter zero-error code push the blocklength-2 exponent
up to rho*log2(5)/2.  Q-forms are those of the uniform distribution on a
code, an exact Fraction when the code is zero-error.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction

from .scalars import INF, LOG5, word_distance

__all__ = [
    "circulant_eigenvalues",
    "critical_rho",
    "ex_exponent_inf",
    "q_form",
]


def _check_rho(rho: float) -> None:
    """Refuse rho below 1, and NaN, which compares false with everything."""
    if not rho >= 1.0:
        raise ValueError(f"rho {rho!r} is not >= 1")


def circulant_eigenvalues(rho: float) -> list[float]:
    """Eigenvalues 1 + 2^(1-1/rho) cos(2 pi k / 5), k = 0..4."""
    _check_rho(rho)
    scale = 2.0 ** (1.0 - 1.0 / rho)
    return [1.0 + scale * math.cos(2.0 * math.pi * k / 5.0) for k in range(5)]


def critical_rho() -> float:
    """Largest rho for which the kernel stays positive semidefinite.

    log 2 / log(2 cos(pi/5)); 2 cos(pi/5) is the golden ratio, and at this
    rho the eigenvalue at k = 2 vanishes exactly.
    """
    return math.log(2.0) / math.log(2.0 * math.cos(math.pi / 5.0))


def ex_exponent_inf(rho: float) -> float:
    """Blocklength-limit expurgated exponent at parameter rho.

    -rho*log2((1 + 2^(1-1/rho))/5) while the kernel is positive semidefinite
    (uniform input optimal), rho*log2(5)/2 beyond (two-letter zero-error
    support optimal).  The two branches meet at critical_rho because
    1 + 2/golden = sqrt 5.
    """
    _check_rho(rho)
    if rho <= critical_rho():
        return -rho * math.log2((1.0 + 2.0 ** (1.0 - 1.0 / rho)) / 5.0)
    return rho * LOG5 / 2.0


def q_form(rho: float, code) -> float | Fraction:
    """Q-form of the uniform distribution on the m words of `code`.

    Q = sum_{x,x'} g(x,x')^(1/rho) / m^2, where the kernel g is the n-fold
    Bhattacharyya product: 2^(-d) when the words are confusable at distance
    d, 0 otherwise.  When no two distinct words are confusable only the
    diagonal kernel value 1 appears, and the form is returned as the exact
    Fraction 1/m.  The words must be distinct, of one length, with integer
    symbols in 0..4.
    """
    _check_rho(rho)
    words = [tuple(w) for w in code]
    if not words:
        raise ValueError("empty code")
    if len({len(w) for w in words}) != 1:
        raise ValueError("words of unequal length")
    for w in words:
        if any(not isinstance(c, numbers.Integral) or not 0 <= c <= 4 for c in w):
            raise ValueError(f"bad word {w!r}")
    if len(set(words)) != len(words):
        raise ValueError("repeated codewords")
    m = len(words)
    if all(word_distance(x, y) == INF for x, y in itertools.combinations(words, 2)):
        return Fraction(1, m)
    p = 1.0 / m
    acc = 0.0
    for x in words:
        for y in words:
            d = word_distance(x, y)
            if d == INF:
                continue
            acc += p * p * 2.0 ** (-d / rho)
    return acc
