"""Linear code constructions over Z5 tuned to the typewriter channel.

The channel confuses symbol a with b only when a - b is 0 or +-1 (mod 5), so
the relevant distance between words is Hamming distance when every coordinate
differs by at most 1 (mod 5) and infinity otherwise.  Codes are built from a
stacked generator [[I, 2I], [0, G]]: the top rows span n copies of the
two-letter zero-error kernel {(u, 2u)}, and an inner generator G over Z5
selects which shifted copies appear.  Coordinate i of the codeword
(u1, 2 u1 + nu) weighs w(u1_i) + w(2 u1_i + nu_i), one entry of a 5 x 5
table, so a weight never materialises the length-2n word, which keeps full
spectrum enumeration cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scalars import LOG5, bisect_root, qary_entropy

__all__ = [
    "INF",
    "word_distance",
    "word_weight",
    "structured_weight",
    "StructuredGenerator",
    "Spectrum",
    "weight_spectrum",
    "hamming_spectrum",
    "union_bound",
    "gv_delta",
    "ExponentResult",
    "optimize_exponent",
    "code_from_generator",
    "write_code_file",
    "read_code_file",
]

INF = math.inf

_ENUM_GUARD = 10**7

# per-symbol weight against 0: w(0)=0, w(+-1)=1, w(+-2)=inf
_SYMBOL_WEIGHT = (0, 1, INF, INF, 1)


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


def word_distance(x, y) -> int | float:
    """Sum of symbol distances with saturation at infinity."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    d = 0
    for a, b in zip(x, y):
        s = _SYMBOL_WEIGHT[(a - b) % 5]
        if s == INF:
            return INF
        d += s
    return d


def word_weight(x) -> int | float:
    """Distance from the all-zero word."""
    return word_distance(x, (0,) * len(x))


# per-coordinate weight of (u1, 2 u1 + nu): _CONTRIB[a, v] = w(a) + w(2a + v),
# with any infinite sum clipped to a large sentinel
_INF_SENTINEL = 10**9
_CONTRIB = np.minimum(
    np.take(_SYMBOL_WEIGHT, np.arange(5)[:, None])
    + np.take(_SYMBOL_WEIGHT, (2 * np.arange(5)[:, None] + np.arange(5)) % 5),
    _INF_SENTINEL,
).astype(np.int64)


def structured_weight(u1, nu) -> int | float:
    """Weight of the codeword (u1, 2*u1 + nu) from per-coordinate contributions.

    Coordinate i contributes w(u1_i) + w(2 u1_i + nu_i), read from the same
    5 x 5 table that weight_spectrum sweeps; the length-2n word itself is
    never built.
    """
    if len(u1) != len(nu):
        raise ValueError("length mismatch")
    a = _symbols(u1, "u1")
    v = _symbols(nu, "nu")
    total = int(_CONTRIB[a, v].sum())
    return total if total < _INF_SENTINEL else INF


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
    """Exact weight spectrum by enumerating all 5^(n+k) messages.

    Enumeration is split by u2: each inner message fixes nu = u2 G, and the
    u1 block is swept with the vectorised contribution table.
    """
    if gen.message_count > _ENUM_GUARD:
        raise ValueError(f"5^(n+k) = {gen.message_count} exceeds guard {_ENUM_GUARD}")
    u1_block = _all_words(gen.n)
    counts: dict[int, int] = {}
    infinite = 0
    max_finite = 2 * gen.n
    for nu in (_all_words(gen.k) @ gen.inner) % 5:
        w = _CONTRIB[u1_block, nu].sum(axis=1)
        finite = w[w <= max_finite]
        infinite += w.size - finite.size
        vals, cnt = np.unique(finite, return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
    return Spectrum(counts, infinite)


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


def gv_delta(r: float) -> float:
    """The delta in (0, 4/5] solving r*log5 = log5 - H2(delta) - 2*delta.

    The right side falls strictly from log5 at delta = 0 to exactly 0 at
    delta = 4/5 (closed form H2(4/5) = log2(5) - 8/5), so each r in [0, 1)
    has one solution; r = 0 hits the tangential endpoint root 4/5.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"normalised rate {r!r} outside [0, 1)")
    target = r * LOG5
    return bisect_root(lambda d: LOG5 - qary_entropy(d, 2.0) - 2.0 * d - target, 0.0, 0.8)


@dataclass(frozen=True)
class ExponentResult:
    """Optimised error exponent of the construction at inner rate r."""

    r: float
    delta_gv: float
    delta_star: float
    tau_star: float
    exponent: float


def optimize_exponent(r: float) -> ExponentResult:
    """Best achievable exponent (length-n normalisation) at inner rate r.

    The inner maximisation over the split fraction tau is always solved by
    tau = 1/3; the distance fraction delta is 3/4 when the GV distance allows
    it and the GV distance itself otherwise, which switches the exponent
    between -(log5*(r-1) + 2) and delta_gv*(4/3 - H2(1/3)).
    """
    d_gv = gv_delta(r)
    tau_star = 1.0 / 3.0
    if d_gv <= 0.75:
        delta_star = 0.75
        exponent = -(LOG5 * (r - 1.0) + 2.0)
    else:
        delta_star = d_gv
        exponent = d_gv * (4.0 / 3.0 - qary_entropy(1.0 / 3.0, 2.0))
    return ExponentResult(r, d_gv, delta_star, tau_star, exponent)


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
