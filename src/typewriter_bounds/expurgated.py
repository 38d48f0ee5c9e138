"""Expurgated-exponent analysis for the typewriter channel at blocklength 2.

The single-letter Bhattacharyya kernel of the channel is circulant: 1 on the
diagonal, 1/2 between cyclically adjacent inputs, 0 elsewhere.  Raised
elementwise to 1/rho it stays circulant, so its eigenvalues are explicit
cosine sums and the largest rho keeping it positive semidefinite has the
closed form log 2 / log(2 cos(pi/5)).  Below that threshold the quadratic
form is minimised by the uniform distribution and the expurgated exponent
carries no memory; above it, distributions supported on a two-letter
zero-error code push the blocklength-2 exponent up to rho*log2(5)/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import INF, word_distance
from .lpbound import max_code
from .scalars import LOG5

__all__ = [
    "bhattacharyya_matrix",
    "circulant_eigenvalues",
    "critical_rho",
    "ex_exponent_inf",
    "InputDistribution",
    "uniform_distribution",
    "code_distribution",
    "q_form",
    "e_ex2",
    "zero_error_code2",
]


def _check_rho(rho: float) -> None:
    """Refuse rho below 1, and NaN, which compares false with everything."""
    if not rho >= 1.0:
        raise ValueError(f"rho {rho!r} is not >= 1")


def bhattacharyya_matrix(rho: float) -> np.ndarray:
    """5x5 circulant with 1 on the diagonal and 2^(-1/rho) at offsets +-1."""
    _check_rho(rho)
    alpha = 2.0 ** (-1.0 / rho)
    m = np.zeros((5, 5))
    for i in range(5):
        m[i, i] = 1.0
        m[i, (i + 1) % 5] = alpha
        m[i, (i - 1) % 5] = alpha
    return m


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


@dataclass(frozen=True)
class InputDistribution:
    """Probability assignment on Z5^n words, n in {1, 2}.

    Values may be fractions.Fraction for exact arithmetic downstream.
    """

    n: int
    probs: dict[tuple, object]

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only blocklengths 1 and 2 are supported")
        for w, p in self.probs.items():
            if len(w) != self.n or any(not 0 <= c <= 4 for c in w):
                raise ValueError(f"bad word {w!r}")
            if p < 0:
                raise ValueError(f"negative probability at {w!r}")
        total = sum(self.probs.values())
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}")

    @property
    def support(self) -> list[tuple]:
        return [w for w, p in self.probs.items() if p != 0]


def uniform_distribution(n: int) -> InputDistribution:
    words = list(itertools.product(range(5), repeat=n))
    p = Fraction(1, len(words))
    return InputDistribution(n, {w: p for w in words})


def code_distribution(code) -> InputDistribution:
    """Uniform distribution on the given words."""
    words = [tuple(int(c) for c in w) for w in code]
    if not words:
        raise ValueError("empty code")
    if len(set(words)) != len(words):
        raise ValueError("repeated codewords")
    p = Fraction(1, len(words))
    return InputDistribution(len(words[0]), {w: p for w in words})


def q_form(rho: float, dist: InputDistribution) -> float | Fraction:
    """Quadratic form sum_{x,x'} P(x) P(x') g(x,x')^(1/rho).

    The kernel g is the n-fold Bhattacharyya product: 2^(-d) when the words
    are confusable at distance d, 0 otherwise.  Pairs outside the support
    contribute nothing, so the double sum runs over support pairs.  When
    every support pair is either equal or non-confusable only the exact
    kernel values 1 and 0 appear, and the form is returned as an exact
    Fraction of the squared probabilities.
    """
    _check_rho(rho)
    support = dist.support
    exact = all(
        word_distance(x, y) in (0, INF)
        for x, y in itertools.combinations(support, 2)
    )
    if exact:
        total = sum(dist.probs[x] * dist.probs[x] for x in support)
        return total if isinstance(total, Fraction) else float(total)
    acc = 0.0
    for x in support:
        px = float(dist.probs[x])
        for y in support:
            d = word_distance(x, y)
            if d == INF:
                continue
            acc += px * float(dist.probs[y]) * 2.0 ** (-d / rho)
    return acc


def e_ex2(r: float) -> float:
    """Blocklength-2 expurgated bound sup_{rho >= 1} [ex_exponent_inf - rho r].

    For r >= log2 sqrt5 the supremum sits at rho = 1 and equals
    log2(5/2) - r; below that rate the linear tail rho*(log2(sqrt5) - r)
    grows without bound, reported as +infinity.
    """
    if r <= 0.0:
        raise ValueError(f"rate {r!r} must be positive")
    if r < LOG5 / 2.0:
        return INF
    return LOG5 - 1.0 - r


def zero_error_code2() -> list[tuple[int, int]]:
    """Lexicographically first 5-word zero-error code of blocklength 2.

    The exact clique search max_code(2, inf) over the 25 words, where two
    words may share a code only when they are non-confusable.  Returns the
    shifted double {(i, 2i mod 5)}; a size-6 code does not exist.
    """
    size, words = max_code(2, INF)
    if size != 5:
        raise AssertionError(f"expected a 5-word zero-error code, found {size}")
    return list(words)
