"""Linear code constructions over Z5 tuned to the typewriter channel.

Distances and weights are those of the typewriter metric in `scalars`.
Codes are built from a stacked generator [[I, 2I], [0, G]]: the top rows
span n copies of the two-letter zero-error kernel {(u, 2u)}, and an inner
generator G over Z5 selects which shifted copies appear.  Coordinate i of
the codeword (u1, 2 u1 + nu) weighs w(u1_i) + w(2 u1_i + nu_i).  As u1_i
runs over Z5, a coordinate with nu_i = 0 has finite weight only once,
weight 0, and one with nu_i != 0 has weight 1 once and weight 2 once, so
the exact spectrum is the inner code's Hamming enumerator with z^h
replaced by z^h (1 + z)^h, and no length-2n word is materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StructuredGenerator",
    "Spectrum",
    "weight_spectrum",
    "hamming_spectrum",
    "union_bound",
    "code_from_generator",
    "write_code_file",
    "read_code_file",
]

_ENUM_GUARD = 10**7


def _symbols(values, what: str) -> np.ndarray:
    """Integer symbols reduced mod 5, as int8.

    The reduction runs in the input's own integer type before the narrowing,
    which would otherwise wrap a symbol such as 130 to a wrong residue.  An
    array with no entries passes whatever its dtype.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise ValueError(f"{what} symbols must be integers, got dtype {arr.dtype}")
    return (arr % 5).astype(np.int8)


@dataclass(frozen=True)
class StructuredGenerator:
    """Stacked generator [[I_n, 2 I_n], [0, G]] over Z5.

    G has shape (k, n); messages are pairs (u1, u2) with u1 in Z5^n and
    u2 in Z5^k, and the codeword is (u1, 2*u1 + u2 G) of length 2n.
    """

    n: int
    k: int
    inner: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = _symbols(self.inner, "generator").astype(np.int64)
        if g.shape != (self.k, self.n):
            raise ValueError(f"inner generator shape {g.shape} != ({self.k}, {self.n})")
        if self.n < 1 or self.k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        object.__setattr__(self, "inner", g)

    @property
    def message_count(self) -> int:
        return 5 ** (self.n + self.k)


@dataclass(frozen=True)
class Spectrum:
    """Message-indexed weight distribution: finite counts plus an infinite bucket."""

    counts: dict[int, int]
    infinite_count: int

    def __post_init__(self):
        if any(w < 0 or c < 0 for w, c in self.counts.items()):
            raise ValueError("negative weight or count")
        if self.counts.get(0, 0) < 1:
            raise ValueError("a linear code always contains the zero word")


def _all_words(n: int) -> np.ndarray:
    """All of Z5^n as an int64 array of shape (5^n, n), lexicographic order;
    at n = 0 that is the one empty word."""
    idx = np.arange(5**n)
    return (idx[:, None] // 5 ** np.arange(n - 1, -1, -1)) % 5


def weight_spectrum(gen: StructuredGenerator) -> Spectrum:
    """Exact weight spectrum from the inner code's Hamming enumerator.

    Each inner message u2 fixes nu = u2 G.  As u1_i runs over Z5, the
    weight w(u1_i) + w(2 u1_i + nu_i) is finite only at u1_i = 0 (weight 0)
    when nu_i = 0, and at one u1_i of weight 1 and one of weight 2
    otherwise.  So the u1 words of a nu of Hamming weight h have the
    generating function z^h (1 + z)^h, and the spectrum is
    sum_h B_h z^h (1 + z)^h with B = hamming_spectrum(G); the messages of
    infinite weight are the rest.
    """
    if gen.message_count > _ENUM_GUARD:
        raise ValueError(f"5^(n+k) = {gen.message_count} exceeds guard {_ENUM_GUARD}")
    total = [0] * (2 * gen.n + 1)
    for h, b in hamming_spectrum(gen.inner).counts.items():
        for j in range(h + 1):
            total[h + j] += b * math.comb(h, j)
    counts = {w: c for w, c in enumerate(total) if c}
    return Spectrum(counts, gen.message_count - sum(total))


def hamming_spectrum(G) -> Spectrum:
    """Hamming weight distribution of {u G : u in Z5^k}, counting messages."""
    g = _symbols(G, "generator")
    if g.ndim != 2:
        raise ValueError("generator must be a 2-d matrix")
    k = g.shape[0]
    if 5**k > _ENUM_GUARD:
        raise ValueError(f"5^k = {5**k} exceeds guard {_ENUM_GUARD}")
    counts: dict[int, int] = {}
    # one batch per value of the leading k - low digits: the 5^low values of
    # the last low digits, at most 5^5 words
    low = min(k, 5)
    low_part = _all_words(low) @ g[k - low :]
    for top in _all_words(k - low):
        w = np.count_nonzero((top @ g[: k - low] + low_part) % 5, axis=1)
        vals, cnt = np.unique(w, return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
    return Spectrum(counts, 0)


def union_bound(spectrum: Spectrum) -> float:
    """Union bound sum_z A_z 2^(-z) over finite weights z >= 1."""
    return math.fsum(c * 2.0 ** (-z) for z, c in spectrum.counts.items() if z >= 1)


def code_from_generator(gen: StructuredGenerator) -> np.ndarray:
    """Materialise all 5^(n+k) codewords (u1, 2 u1 + u2 G), length 2n."""
    if gen.message_count > _ENUM_GUARD // 10:
        raise ValueError("code too large to materialise")
    u1 = _all_words(gen.n)
    nu = (_all_words(gen.k) @ gen.inner) % 5
    left = np.repeat(u1, len(nu), axis=0)
    right = (2 * left + np.tile(nu, (len(u1), 1))) % 5
    return np.hstack([left, right])


def _code_text(code, header_comment: str | None = None) -> str:
    """The code-file text: one codeword per line as base-5 digit strings,
    after an optional '# ' comment line."""
    lines = [f"# {header_comment}"] if header_comment else []
    lines += ["".join(map(str, row)) for row in _symbols(code, "code").tolist()]
    return "\n".join(lines) + "\n"


def write_code_file(path, code, header_comment: str | None = None) -> None:
    """One codeword per line as base-5 digit strings; '#' lines are comments."""
    with open(path, "w") as fh:
        fh.write(_code_text(code, header_comment))


def read_code_file(path) -> np.ndarray:
    """Parse a code file written by write_code_file."""
    words = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not all(c in "01234" for c in line):
                raise ValueError(f"invalid base-5 word {line!r}")
            words.append([int(c) for c in line])
    if not words:
        raise ValueError("empty code file")
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise ValueError("codewords have mixed lengths")
    return np.array(words, dtype=np.int64)
