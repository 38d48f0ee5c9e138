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
    "symbol_distance",
    "word_distance",
    "word_weight",
    "structured_weight",
    "StructuredGenerator",
    "Spectrum",
    "weight_spectrum",
    "hamming_spectrum",
    "union_bound",
    "gv_delta",
    "gv_spectrum_exponent",
    "ExponentResult",
    "optimize_exponent",
    "random_inner_generator",
    "code_from_generator",
    "write_code_file",
    "read_code_file",
    "spectrum_csv",
]

INF = math.inf

_ENUM_GUARD = 10**7

# per-symbol weight against 0: w(0)=0, w(+-1)=1, w(+-2)=inf
_SYMBOL_WEIGHT = (0, 1, INF, INF, 1)


def symbol_distance(a: int, b: int) -> int | float:
    """0 if equal, 1 if a - b = +-1 (mod 5), infinity otherwise."""
    return _SYMBOL_WEIGHT[(a - b) % 5]


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
    a = np.asarray(u1, dtype=np.int64) % 5
    v = np.asarray(nu, dtype=np.int64) % 5
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
        g = np.asarray(self.inner, dtype=np.int64) % 5
        if g.shape != (self.k, self.n):
            raise ValueError(f"inner generator shape {g.shape} != ({self.k}, {self.n})")
        if self.n < 1 or self.k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        object.__setattr__(self, "inner", g)

    @property
    def matrix(self) -> np.ndarray:
        """The full (n + k) x 2n generator matrix."""
        eye = np.eye(self.n, dtype=np.int64)
        top = np.hstack([eye, (2 * eye) % 5])
        bottom = np.hstack([np.zeros((self.k, self.n), dtype=np.int64), self.inner])
        return np.vstack([top, bottom])

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

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.infinite_count


def _all_words(n: int) -> np.ndarray:
    """All of Z5^n as an array of shape (5^n, n), lexicographic order."""
    idx = np.arange(5**n)
    cols = []
    for pos in range(n):
        cols.append((idx // 5 ** (n - 1 - pos)) % 5)
    return np.stack(cols, axis=1).astype(np.int64)


def weight_spectrum(gen: StructuredGenerator) -> Spectrum:
    """Exact weight spectrum by enumerating all 5^(n+k) messages.

    Enumeration is split by u2: each inner message fixes nu = u2 G, and the
    u1 block is swept with the vectorised contribution table.
    """
    if gen.message_count > _ENUM_GUARD:
        raise ValueError(f"5^(n+k) = {gen.message_count} exceeds guard {_ENUM_GUARD}")
    u1_block = _all_words(gen.n)
    u2_block = _all_words(gen.k) if gen.k else np.zeros((1, 0), dtype=np.int64)
    counts: dict[int, int] = {}
    infinite = 0
    max_finite = 2 * gen.n
    for u2 in u2_block:
        nu = (u2 @ gen.inner) % 5 if gen.k else np.zeros(gen.n, dtype=np.int64)
        w = _CONTRIB[u1_block, nu].sum(axis=1)
        finite = w[w <= max_finite]
        infinite += w.size - finite.size
        vals, cnt = np.unique(finite, return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
    return Spectrum(counts, infinite)


def hamming_spectrum(G) -> Spectrum:
    """Hamming weight distribution of {u G : u in Z5^k}, counting messages."""
    g = np.asarray(G, dtype=np.int64) % 5
    if g.ndim != 2:
        raise ValueError("generator must be a 2-d matrix")
    k = g.shape[0]
    if 5**k > _ENUM_GUARD:
        raise ValueError(f"5^k = {5**k} exceeds guard {_ENUM_GUARD}")
    counts: dict[int, int] = {}
    batch = 5**5
    total = 5**k
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total))
        msgs = np.stack([(idx // 5 ** (k - 1 - p)) % 5 for p in range(k)], axis=1) if k else np.zeros((1, 0), dtype=np.int64)
        words = (msgs @ g) % 5
        w = np.count_nonzero(words, axis=1)
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


def gv_spectrum_exponent(r: float, delta: float) -> float:
    """Per-symbol log2 of the ambient spectrum term 5^(n(r-1)) C(n, dn) 4^(dn)."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta {delta!r} outside [0, 1]")
    return (r - 1.0) * LOG5 + qary_entropy(delta, 2.0) + 2.0 * delta


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


def random_inner_generator(n: int, k: int, seed: int) -> np.ndarray:
    """Uniform random k x n matrix over Z5 from a seeded generator."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 5, size=(k, n), dtype=np.int64)


def code_from_generator(gen: StructuredGenerator) -> np.ndarray:
    """Materialise all 5^(n+k) codewords (u1, 2 u1 + u2 G), length 2n."""
    if gen.message_count > _ENUM_GUARD // 10:
        raise ValueError("code too large to materialise")
    u1 = _all_words(gen.n)
    u2 = _all_words(gen.k) if gen.k else np.zeros((1, 0), dtype=np.int64)
    nu = (u2 @ gen.inner) % 5 if gen.k else np.zeros((1, gen.n), dtype=np.int64)
    left = np.repeat(u1, len(u2), axis=0)
    right = (2 * left + np.tile(nu, (len(u1), 1))) % 5
    return np.hstack([left, right])


def write_code_file(path, code, header_comment: str | None = None) -> None:
    """One codeword per line as base-5 digit strings; '#' lines are comments."""
    rows = np.asarray(code, dtype=np.int64) % 5
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    for row in rows:
        lines.append("".join(str(int(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def spectrum_csv(spectrum: Spectrum, header_comment: str | None = None) -> str:
    """CSV rows weight,count sorted by weight, with a final inf row."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("weight,count")
    for w in sorted(spectrum.counts):
        lines.append(f"{w},{spectrum.counts[w]}")
    lines.append(f"inf,{spectrum.infinite_count}")
    return "\n".join(lines) + "\n"
