"""Reference computations that check the package's outputs.

Nothing here imports the package: each check recomputes the expected answer
by an independent route (exact Z[sqrt5] Krawtchouk values, scipy's HiGHS,
brute-force enumeration, a bitset Monte Carlo decoder) or compares with a
golden value recorded from the seed commit.  Checks run in the benchmark's
parent process, after the timed jobs, and return None on success or a short
reason string on failure.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

INF = math.inf

# tolerance of the package's own acceptance test in solve_distance_lp
LAMBDA_TOL = 1e-7
# an optimal objective must match HiGHS this closely, relative
OBJECTIVE_TOL = 1e-6
# multipliers may dip below zero by this much relative to the largest
LAM_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def distance(x, y) -> float:
    """Typewriter distance: 0 / 1 per coordinate for a - b in {0} / {+-1}."""
    d = 0
    for a, b in zip(x, y):
        s = (a - b) % 5
        if s in (2, 3):
            return INF
        d += s != 0
    return d


@functools.lru_cache(maxsize=None)
def kraw_table(n: int) -> np.ndarray:
    """K[u, ell] = K_ell(u; n, sqrt5), exact in Z[sqrt5], then rounded.

    (sqrt5 - 1)^k is carried as an integer pair (a, b) meaning a + b sqrt5,
    so the only rounding is the final conversion at 100 digits.
    """
    powers = [(1, 0)]
    for _ in range(n):
        a, b = powers[-1]
        powers.append((5 * b - a, a - b))  # (a + b r)(r - 1), r = sqrt5
    table = np.empty((n + 1, n + 1))
    with localcontext() as ctx:
        ctx.prec = 100
        root5 = Decimal(5).sqrt()
        for u in range(n + 1):
            for ell in range(n + 1):
                a = b = 0
                for j in range(ell + 1):
                    c = (-1) ** j * math.comb(u, j) * math.comb(n - u, ell - j)
                    pa, pb = powers[ell - j]
                    a += c * pa
                    b += c * pb
                table[u, ell] = float(a + b * root5)
    return table


@functools.lru_cache(maxsize=None)
def highs_objective(n: int, d: float):
    """Optimal Lambda(0) of the distance LP from scipy's HiGHS, or None."""
    from scipy.optimize import linprog

    if d == INF or d > n:
        return 1.0
    K = kraw_table(n)
    scaled = K[:, 1:] / K[0, 1:]
    res = linprog(np.ones(n), A_ub=scaled[int(d):], b_ub=-np.ones(n + 1 - int(d)), method="highs")
    return 1.0 + res.fun if res.status == 0 else None


def check_multiplier(n: int, d: float, lam, objective: float, optimal: bool):
    """lam >= 0, Lambda(u) <= 0 for u >= d, objective against HiGHS.

    Lambda is recomputed from lam with the exact table.  An optimal
    solution must match HiGHS; a certificate may only be worse.
    """
    lam = np.asarray(lam, dtype=float)
    if len(lam) != n + 1 or not np.all(np.isfinite(lam)) or lam[0] != 1.0:
        return "multiplier vector malformed"
    if lam.min() < -LAM_TOL * lam.max():
        return f"negative multiplier {lam.min():.3e}"
    values = kraw_table(n) @ lam
    if d != INF and d <= n:
        slack = float(values[int(d):].max())
        if slack > LAMBDA_TOL * max(1.0, values[0]):
            return f"Lambda(u) = {slack:.3e} > 0 for some u >= {d}"
    ref = highs_objective(n, d)
    if ref is not None:
        tol = OBJECTIVE_TOL * max(1.0, abs(ref))
        if optimal and abs(objective - ref) > tol:
            return f"objective {objective!r} != HiGHS {ref!r}"
        if not optimal and objective < ref - tol:
            return f"certificate objective {objective!r} below HiGHS optimum {ref!r}"
    return None


def objective_drift(n: int, lam, objective: float) -> float:
    """Signed relative gap between a reported objective and exact Lambda(0) of lam.

    Negative means the objective claims a smaller bound than lam proves.
    """
    exact = float(kraw_table(n)[0] @ np.asarray(lam, dtype=float))
    return (objective - exact) / max(1.0, abs(exact))


def lovasz(n: int) -> float:
    c = math.cos(math.pi / 5)
    return (5 * c / (1 + c)) ** n


def check_code(words, n: int, d: float, golden):
    """A max_code witness: right length, pairwise distance, golden words."""
    words = [tuple(w) for w in words]
    if any(len(w) != n for w in words):
        return "witness word of wrong length"
    for x, y in itertools.combinations(words, 2):
        dist = distance(x, y)
        if not (dist == INF if d == INF else dist >= d):
            return f"witness pair {x} {y} at distance {dist} < {d}"
    if [list(w) for w in words] != golden:
        return "witness differs from the lex-first golden"
    return None


def all_words(n: int) -> np.ndarray:
    idx = np.arange(5**n)
    return np.stack([(idx // 5 ** (n - 1 - p)) % 5 for p in range(n)], axis=1)


def structured_code(n: int, k: int, inner) -> np.ndarray:
    """Codewords (u1, 2 u1 + u2 G), message (u1, u2) at index u1 * 5^k + u2."""
    G = np.asarray(inner, dtype=np.int64).reshape(k, n) % 5
    u1 = np.repeat(all_words(n), 5**k, axis=0)
    u2 = np.tile(all_words(k), (5**n, 1))
    return np.concatenate([u1, (2 * u1 + u2 @ G) % 5], axis=1)


def reference_spectrum(inner) -> dict:
    """Weight counts of {(u1, 2 u1 + u2 G)} by brute force; key -1 is inf."""
    G = np.asarray(inner, dtype=np.int64) % 5
    k, n = G.shape
    u1 = all_words(n)
    counts: dict[int, int] = {}
    for u2 in all_words(k):
        right = (2 * u1 + u2 @ G) % 5
        word = np.concatenate([u1, right], axis=1)
        sym = np.minimum(word, 5 - word)  # 0, 1 or 2 = inf
        w = np.where((sym == 2).any(axis=1), -1, sym.sum(axis=1))
        for v, c in zip(*np.unique(w, return_counts=True)):
            counts[int(v)] = counts.get(int(v), 0) + int(c)
    return counts


def reference_errors(code, trials: int, seed: int) -> int:
    """Monte Carlo error count by the documented Philox layout.

    Trial t uses raw words 4t..4t+3 of Philox(key=seed): message index,
    noise bits, tie break, reserved.  The decoder keeps, per coordinate and
    received symbol, the bitset of codewords that could have produced it,
    ANDs them, and takes the (tie mod count)-th candidate in code order.
    """
    code = np.asarray(code, dtype=np.int64) % 5
    m, n = code.shape
    plaus = [[0] * 5 for _ in range(n)]
    for i, word in enumerate(code.tolist()):
        for c, s in enumerate(word):
            plaus[c][s] |= 1 << i
            plaus[c][(s + 1) % 5] |= 1 << i
    raw = np.random.Philox(key=seed).random_raw(4 * trials).reshape(trials, 4)
    msgs = (raw[:, 0] % np.uint64(m)).astype(np.int64)
    shifts = np.arange(n, dtype=np.uint64)
    noise = ((raw[:, 1, None] >> shifts) & np.uint64(1)).astype(np.int64)
    received = ((code[msgs] + noise) % 5).tolist()
    ties = raw[:, 2].tolist()
    errors = 0
    for msg, y, tie in zip(msgs.tolist(), received, ties):
        cand = -1
        for c, s in enumerate(y):
            cand &= plaus[c][s]
        pick = tie % cand.bit_count()
        for _ in range(pick):
            cand &= cand - 1
        errors += (cand & -cand).bit_length() - 1 != msg
    return errors
