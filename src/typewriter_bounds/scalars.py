"""Scalar numeric kernels shared by the bound computations.

Everything here is deliberately dependency-free: q-ary entropy, log-domain
binomials, a deterministic bisection root finder, and Krawtchouk polynomial
evaluation at the irrational alphabet parameter q' = sqrt 5 of the distance
LP.  The package's alphabet constants log2 5 and q' live here, and so does
the typewriter metric: symbols a and b are confusable only when a - b is 0
or +-1 (mod 5), so two words are at Hamming distance when every coordinate
differs by at most 1 (mod 5) and at infinity otherwise.  All logarithms are
base 2.
"""

from __future__ import annotations

import math

__all__ = [
    "LOG5",
    "QPRIME",
    "INF",
    "word_distance",
    "qary_entropy",
    "log2_binomial",
    "bisect_root",
    "krawtchouk",
    "krawtchouk_recurrence",
]

_MAX_KRAWTCHOUK_N = 64
_EXACT_BINOMIAL_N = 60
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200

LOG5 = math.log2(5.0)
# the effective alphabet size 1 + 1/cos(pi/5) of the 5-input typewriter's
# distance LP; the same double as math.sqrt(5.0)
QPRIME = 1.0 + 1.0 / math.cos(math.pi / 5.0)
# (q'-1)^k and k! (rounded once, as the division p / k! rounds it) for
# k = 0..64, and the Krawtchouk term factors (-1)^j (q'-1)^(ell-j) at [ell][j]
_POWERS = tuple((QPRIME - 1.0) ** k for k in range(_MAX_KRAWTCHOUK_N + 1))
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(_MAX_KRAWTCHOUK_N + 1))
_SIGNED_POWERS = tuple(
    tuple((-1.0) ** j * _POWERS[ell - j] for j in range(ell + 1)) for ell in range(len(_POWERS))
)

INF = math.inf

# per-symbol weight against 0: w(0)=0, w(+-1)=1, w(+-2)=inf
_SYMBOL_WEIGHT = (0, 1, INF, INF, 1)


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


def qary_entropy(t: float, q: float) -> float:
    """H_q(t) = t*log2(q-1) - t*log2(t) - (1-t)*log2(1-t), with 0*log 0 = 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"entropy argument {t!r} outside [0, 1]")
    if not q > 1.0:  # refuses NaN too
        raise ValueError(f"alphabet parameter {q!r} must exceed 1")
    s = 0.0
    if t > 0.0:
        s += t * math.log2(q - 1.0) - t * math.log2(t)
    if t < 1.0:
        s -= (1.0 - t) * math.log2(1.0 - t)
    return s


def log2_binomial(n: int, k: int) -> float:
    """log2 C(n, k).  Exact integer path for n <= 60, lgamma beyond."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"binomial ({n}, {k}) out of range")
    if n <= _EXACT_BINOMIAL_N:
        return math.log2(math.comb(n, k))
    lg = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return lg / math.log(2.0)


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of f by bisection on [lo, hi]; the final bracket is at most 1e-12.

    Requires a sign change over the bracket.  Endpoints where |f| <= 1e-12
    are accepted as roots directly, which keeps callers with tangential
    endpoint roots (no strict sign change) well defined.  At most 200 halvings.
    """
    if not lo < hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= 1e-12:
        return lo
    if abs(fhi) <= 1e-12:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _binomial_row(u: float, top: int) -> list[float]:
    """[C(u, j) for j = 0..top], cut after its last nonzero entry: exact comb
    for integer u >= 0, which stops at j = u, else one running falling
    factorial u (u-1) ... (u-j+1) divided by j!."""
    if top < 0:
        raise ValueError("lower index must be nonnegative")
    if isinstance(u, int) or float(u).is_integer():
        ui = int(round(u))
        if 0 <= ui:
            return [float(math.comb(ui, j)) for j in range(min(ui, top) + 1)]
    row = [1.0]
    p = 1.0
    for j in range(1, top + 1):
        p *= u - (j - 1)
        row.append(p / _FACTORIALS[j])
    return row


def _term_sum(ell: int, cu_row: list[float], cn_row: list[float]) -> float:
    """math.fsum of (-1)^j (q'-1)^(ell-j) C(u, j) C(n-u, ell-j) over the j
    where both binomial rows have an entry, that is where neither is 0."""
    signed = _SIGNED_POWERS[ell]
    low = max(0, ell - len(cn_row) + 1)
    return math.fsum(
        [signed[j] * cu_row[j] * cn_row[ell - j] for j in range(low, min(ell, len(cu_row) - 1) + 1)]
    )


def _check_length(n: int) -> None:
    if n < 0 or n > _MAX_KRAWTCHOUK_N:
        raise ValueError(f"n={n} outside supported range [0, {_MAX_KRAWTCHOUK_N}]")


def _check_degree(n: int, ell: int) -> None:
    _check_length(n)
    if not 0 <= ell <= n:
        raise ValueError(f"degree {ell} outside [0, {n}]")


def krawtchouk(n: int, ell: int, u: float) -> float:
    """K_ell(u; n, q') = sum_j (-1)^j (q'-1)^(ell-j) C(u, j) C(n-u, ell-j).

    q' = sqrt 5, and u may be non-integer.  Terms are combined with exact
    compensated summation (math.fsum); n above 64 is refused because the term
    magnitudes then outgrow what double precision can cancel reliably.
    """
    _check_degree(n, ell)
    return _term_sum(ell, _binomial_row(u, ell), _binomial_row(n - u, ell))


def _krawtchouk_row(n: int, u: float) -> list[float]:
    """[K_ell(u; n, q') for ell = 0..n] for n in 0..64, each entry
    krawtchouk's bit for bit: the binomial rows are built once, and a row
    cut at top = n agrees with the one cut at top = ell on every j <= ell."""
    cu_row, cn_row = _binomial_row(u, n), _binomial_row(n - u, n)
    return [_term_sum(ell, cu_row, cn_row) for ell in range(n + 1)]


def krawtchouk_recurrence(n: int, ell: int, u: float) -> float:
    """Same polynomial via the three-term recurrence; cross-check path.

    (l+1) K_{l+1}(u) = [(q'-1)(n-l) + l - q'u] K_l(u) - (q'-1)(n-l+1) K_{l-1}(u)
    """
    _check_degree(n, ell)
    km1, k = 0.0, 1.0
    for l in range(ell):
        nxt = (((QPRIME - 1.0) * (n - l) + l - QPRIME * u) * k
               - (QPRIME - 1.0) * (n - l + 1) * km1) / (l + 1)
        km1, k = k, nxt
    return k
