"""Linear-programming code bounds at the effective alphabet size q' = sqrt 5.

A feasible multiplier vector lam with lam_0 = 1, lam_ell >= 0 and
Lambda(u) = sum_ell lam_ell K_ell(u) <= 0 for u = d..n certifies that any
code whose confusable pairs all differ in at least d coordinates has at most
Lambda(0) words per Lovasz witness, for a composite bound of
(5 cos / (1 + cos))^n * Lambda(0) with cos = cos(pi/5).  This module finds
optimal multipliers by simplex, builds the explicit two-point
Christoffel-Darboux multipliers used in the asymptotic analysis,
reconstructs the product certificate function on Z_5^n, and verifies it
pointwise.  Exact small-length optima come from a branch-and-bound clique
search for cross-checking.  q' = sqrt 5 and q = 5 are fixed: the composite
bound's q = 5 Lovasz factor bounds nothing at any other q'.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .construction import INF, word_distance
from .curves import _fmt
from .fourier import _COS, _Q, _SIZE_GUARD, GroupFunction, _check_size, lovasz_bound
from .scalars import _MAX_KRAWTCHOUK_N, _POWERS, QPRIME, _krawtchouk_row, bisect_root, krawtchouk
from .simplex import simplex_solve

__all__ = [
    "QPRIME",
    "LPSolution",
    "solve_distance_lp",
    "composite_bound",
    "first_root",
    "mrrw_certificate",
    "mrrw_params",
    "certificate_function",
    "CertificateReport",
    "verify_certificate",
    "max_code",
    "save_certificate",
    "load_certificate",
]

_CUBE = (0, 1, _Q - 1)  # the symbols where the certificate lives
_HALF = (0, 1, 2)  # one symbol of each pair {w, -w} of frequencies
_SPHERE = (0, (_Q - 1) // 2, (_Q + 1) // 2)  # where the multiplier's transform lives
# the two 3 x 3 blocks of the transform kernels that the certificate uses:
# exp(+2 pi i w x / 5) at w in _HALF, x in _CUBE for its transform, and
# exp(-2 pi i w x / 5) / 5 at x in _CUBE, w in _SPHERE for the multiplier;
# shared by every call, so read-only
_HALF_DFT = np.exp(2j * np.pi * np.outer(_HALF, _CUBE) / _Q)
_CUBE_IDFT = np.exp(-2j * np.pi * np.outer(_CUBE, _SPHERE) / _Q) / _Q
_HALF_DFT.setflags(write=False)
_CUBE_IDFT.setflags(write=False)


@dataclass(frozen=True)
class LPSolution:
    """Multiplier certificate for one (n, d) pair.

    lam[ell] are the multipliers of the Krawtchouk polynomials at q' = sqrt 5,
    with lam[0] = 1, Lambda[u] the resulting polynomial values, objective =
    Lambda[0].  status is "optimal" for simplex output, "certificate" for the
    explicit Christoffel-Darboux construction, or a simplex failure string.
    """

    n: int
    d: float
    lam: tuple
    Lambda: tuple
    objective: float
    status: str


def _normalize_d(n: int, d) -> float:
    if d != INF:
        if d != int(d) or d < 1:
            raise ValueError(f"distance {d} must be a positive integer or inf")
        d = int(d)
        if d > n:
            return INF
    return d


@functools.lru_cache(maxsize=None)
def _kraw_table(n: int) -> np.ndarray:
    """K[u, ell] = K_ell(u) for u, ell = 0..n, built once per n.

    Row u is scalars._krawtchouk_row(n, u), the term sum krawtchouk uses,
    so every entry equals the scalar evaluator's bit for bit.  Every caller
    shares the cached array, so it is read-only.  n > 64 is refused as
    krawtchouk refuses it, so the cache holds at most 64 tables (0.75 MB).
    """
    if n < 0 or n > _MAX_KRAWTCHOUK_N:
        raise ValueError(f"n={n} outside supported range [0, {_MAX_KRAWTCHOUK_N}]")
    K = np.array([_krawtchouk_row(n, u) for u in range(n + 1)])
    K.setflags(write=False)
    return K


def solve_distance_lp(n: int, d) -> LPSolution:
    """Minimize Lambda(0) over lam_0 = 1, lam >= 0, Lambda(u) <= 0, u = d..n.

    Columns are scaled by K_ell(0) so the tableau entries stay O(1); the
    multipliers are recovered afterwards.  With d > n (or inf) there is no
    constraint and the trivial lam = e_0 is optimal.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    d = _normalize_d(n, d)
    K = _kraw_table(n)
    if d == INF:
        lam = (1.0,) + (0.0,) * n
        return LPSolution(n, d, lam, tuple(K[:, 0]), 1.0, "optimal")

    k0 = K[0, 1:]  # K_ell(0) = (q'-1)^ell C(n, ell) > 0
    scaled = K[:, 1:] / k0
    res = simplex_solve(np.ones(n), scaled[d:, :], -np.ones(n + 1 - d))
    if res.status != "optimal":
        nanv = (math.nan,) * (n + 1)
        return LPSolution(n, d, nanv, nanv, math.nan, res.status)
    mu = np.maximum(res.x, 0.0)
    lam = np.concatenate([[1.0], mu / k0])
    values = K @ lam
    slack = float(values[d:].max(initial=-math.inf))
    if slack > 1e-7 * max(1.0, float(values[0])):
        raise ArithmeticError(f"simplex solution violates Lambda <= 0 by {slack:.3e}")
    return LPSolution(n, d, tuple(lam), tuple(values), float(values[0]), "optimal")


def composite_bound(n: int, d) -> float:
    """(5 cos / (1 + cos))^n times the distance-LP value."""
    sol = solve_distance_lp(n, d)
    if sol.status != "optimal":
        raise ArithmeticError(f"distance LP failed: {sol.status}")
    return lovasz_bound(n) * sol.objective


def _scan_grid() -> tuple:
    """u = 0, 0.05, 0.10, ... accumulated by += 0.05, up to 64.05."""
    grid = [0.0]
    top = _MAX_KRAWTCHOUK_N + 0.05
    while grid[-1] + 0.05 <= top:
        grid.append(grid[-1] + 0.05)
    return tuple(grid)


_GRID = _scan_grid()


def first_root(n: int, ell: int) -> float:
    """Smallest positive zero of u -> K_ell(u), bracketed on a 0.05 grid.

    The grid is that of a scan from u = 0 in steps of += 0.05.  The smallest
    eigenvalue r of the ell x ell Jacobi matrix of the three-term recurrence
    (Golub and Welsch, 1969) picks the bracket: the grid neighbours next to
    r with K_ell > 0 on the left and not > 0 on the right.  K_ell(0) > 0 and
    the zeros of a polynomial orthogonal on the lattice 0..n are more than 1
    apart, so this is the scan's first sign change.  The root is the right
    end on an exact 0, else bisect_root on the bracket, unchanged: the
    eigenvalue decides only the bracket, so every bit is the scan's.
    """
    if ell < 1:
        raise ValueError("K_0 has no root")
    if ell > n:
        raise ValueError(f"degree {ell} outside [1, {n}]")
    if n > _MAX_KRAWTCHOUK_N:
        raise ValueError(f"n={n} outside supported range [0, {_MAX_KRAWTCHOUK_N}]")
    levels = np.arange(ell)
    diagonal = ((QPRIME - 1.0) * (n - levels) + levels) / QPRIME
    off = np.sqrt(levels[1:] * (QPRIME - 1.0) * (n - levels[:-1])) / QPRIME
    jacobi = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    r = float(np.linalg.eigvalsh(jacobi)[0])
    f = lambda u: krawtchouk(n, ell, u)
    last = bisect.bisect_right(_GRID, n + 0.05) - 1
    k = min(max(bisect.bisect_left(_GRID, r), 1), last)
    while k > 1 and not f(_GRID[k - 1]) > 0.0:
        k -= 1
    while (v := f(_GRID[k])) > 0.0:
        k += 1
        if k > last:
            raise ArithmeticError(f"no sign change found for K_{ell} on [0, {n}]")
    if v == 0.0:
        return _GRID[k]
    return bisect_root(f, _GRID[k - 1], _GRID[k])


def mrrw_certificate(n: int, d: int, t: int, a: float) -> LPSolution:
    """Christoffel-Darboux multiplier at degree t and reference point a.

    Lambda(u) = (a - u)^-1 (K_t(a) K_{t+1}(u) - K_{t+1}(a) K_t(u))^2, which
    is <= 0 for u > a automatically; the multipliers come from Krawtchouk
    orthogonality with weight (q'-1)^u C(n, u) and are then normalized to
    lam_0 = 1.  Positivity of the lam_ell depends on the choice of (t, a)
    and is left to the caller (see mrrw_params).
    """
    if not 1 <= t < n:
        raise ValueError(f"degree {t} outside [1, {n - 1}]")
    if not 0.0 < a < d:
        raise ValueError(f"reference point {a} outside (0, {d})")
    if float(a).is_integer():
        # a = u would make values[u] = 0/0
        raise ValueError(f"reference point {a} is an integer")
    kta = krawtchouk(n, t, a)
    kt1a = krawtchouk(n, t + 1, a)
    K = _kraw_table(n)
    values = np.array(
        [(kta * K[u, t + 1] - kt1a * K[u, t]) ** 2 / (a - u) for u in range(n + 1)]
    )
    weight = np.array([_POWERS[u] * math.comb(n, u) for u in range(n + 1)])
    columns = ((weight * values)[:, None] * K).T.tolist()
    lam = np.array(
        [
            math.fsum(column) / (QPRIME**n * _POWERS[ell] * math.comb(n, ell))
            for ell, column in enumerate(columns)
        ]
    )
    lam0 = lam[0]
    if not lam0 > 0.0:
        raise ArithmeticError(f"lam_0 = {lam0:.3e} is not positive at (t={t}, a={a})")
    lam /= lam0
    values /= lam0
    return LPSolution(n, float(d), tuple(lam), tuple(values), float(values[0]), "certificate")


def mrrw_params(n: int, d: int):
    """Search (t, a) giving a valid Christoffel-Darboux certificate.

    a sits just below min(first_root(K_t), d) and must stay above the first
    root of K_{t+1} so both boundary Krawtchouk values keep their signs.
    Returns (t, a, objective) with the smallest objective among valid
    choices, or None when no degree works.
    """
    best = None
    root_next = first_root(n, 1)
    for t in range(1, n // 2 + 2):
        root_t = root_next
        try:
            root_next = first_root(n, t + 1)
        except (ArithmeticError, ValueError):
            break
        a = min(root_t, float(d)) - 1e-6
        if a <= root_next or a <= 0.0:
            continue
        try:
            sol = mrrw_certificate(n, d, t, a)
        except ArithmeticError:
            continue
        lam = np.array(sol.lam)
        if lam.min() < -1e-9 * lam.max():
            continue
        if best is None or sol.objective < best[2]:
            best = (t, a, sol.objective)
    return best


def _apply_axes(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Contract every axis of arr with the columns of kernel, in axis order.

    A 3 x 3 block of a transform kernel maps a function on one sub-cube of
    Z_5^n to its transform, or inverse transform, on another.
    """
    for axis in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(kernel, arr, axes=([1], [axis])), 0, axis)
    return arr


def _require_certificate(sol: LPSolution) -> None:
    """A failed LP has no certificate: a status other than optimal or
    certificate, or a non-finite lam, raises ValueError."""
    if sol.status not in ("optimal", "certificate") or not all(map(math.isfinite, sol.lam)):
        raise ValueError(f"no certificate to check: LP status {sol.status}")


def _cube_certificate(sol: LPSolution) -> tuple[np.ndarray, np.ndarray]:
    """The certificate f on {0, 1, 4}^n, and the typewriter weights there.

    f = g h vanishes off this cube because the witness g does, and g on it
    is the outer product of (1, phi, phi).  The multiplier's transform is
    5^n lam_ell (2 cos)^-ell on the ell-th frequency sphere and 0 off the
    spheres, so it lives on {0, 2, 3}^n, and h on the cube is the idft
    restricted to those rows and columns: the block _CUBE_IDFT per axis.
    On both cubes the sphere index and the typewriter weight are the number
    of nonzero coordinates.  A solution without a certificate, or 3^n above
    the fourier size guard, raises ValueError before anything is allocated.
    """
    _require_certificate(sol)
    n = sol.n
    if 3**n > _SIZE_GUARD:
        raise ValueError(f"3^n = {3**n} exceeds guard {_SIZE_GUARD}")
    count = functools.reduce(np.add.outer, (np.array([0, 1, 1], dtype=np.int8),) * n)
    coeffs = np.array([_Q**n * lam / (2.0 * _COS) ** ell for ell, lam in enumerate(sol.lam)])
    h = _apply_axes(coeffs[count], _CUBE_IDFT)
    phi = 1.0 / (2.0 * _COS)
    g = functools.reduce(np.multiply.outer, (np.array([1.0, phi, phi]),) * n)
    return g * h, count


def certificate_function(sol: LPSolution) -> GroupFunction:
    """Product witness times sphere multiplier, as a function on Z_5^n.

    The result f vanishes off {0, +-1}^n, is <= 0 on confusable differences
    with >= d steps, has nonnegative transform, and satisfies
    5^n f(0) / f_hat(0) = composite bound.

    f is computed on {0, +-1}^n only (3^n words, see verify_certificate)
    and scattered into zeros; 5^n above the fourier size guard raises
    ValueError before anything is allocated.
    """
    _require_certificate(sol)
    _check_size(sol.n)
    f, _ = _cube_certificate(sol)
    values = np.zeros((_Q,) * sol.n, dtype=np.complex128)
    values[np.ix_(*(_CUBE,) * sol.n)] = f
    return GroupFunction(sol.n, values)


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    bound: float
    support_violation: float  # max f(x) over weights >= d, should be <= 0
    transform_minimum: float  # min of f_hat, should be >= 0
    detail: str


def verify_certificate(sol: LPSolution) -> CertificateReport:
    """Pointwise check of the reconstructed certificate function.

    Confirms f <= 0 on the checked set, f_hat >= 0 everywhere, and that the
    bound 5^n f(0) / f_hat(0) matches the composite value lovasz * Lambda(0).
    The checked set is every word of typewriter weight >= d together with
    every non-confusable word (one with a coordinate outside {0, +-1}), so
    at d = inf it is exactly the non-confusable words.  Tolerances are
    relative to the largest magnitude in each array.

    f is built and checked on the 3^n words of {0, +-1}^n, where it lives:
    off them it is exactly 0, so the support maximum is the larger of 0 and
    the cube's maximum.  f is even in every coordinate: the witness is
    (1, phi, phi) on the symbols (0, 1, -1), and the multiplier's factor is
    the inverse transform of a function of the number of +-2 coordinates,
    which negating a frequency coordinate does not change.  So f_hat(w) is
    unchanged when any w_i is negated, every value f_hat takes on Z_5^n is
    taken on {0, 1, 2}^n, and f_hat is evaluated only there: the block
    _HALF_DFT per axis.  No array here has more than 3^n entries, and the
    peak stays under five complex 3^n arrays.  3^n is held to the fourier
    size guard of 10^7 entries, so n <= 14; a larger n raises ValueError
    before anything is allocated.  A solution whose status is neither
    optimal nor certificate, or whose lam is not finite, is refused with
    ValueError.
    """
    f, weight = _cube_certificate(sol)
    fr = f.real
    scale = float(np.abs(fr).max())
    n = sol.n
    threshold = n + 1 if sol.d > n else math.ceil(sol.d)
    # max keeps its first argument on a tie, so a zero maximum is reported as +0.0
    worst = max(0.0, float(np.max(fr, where=weight >= threshold, initial=-math.inf)))
    fhat = _apply_axes(f, _HALF_DFT).real
    tmin = float(fhat.min())
    hatscale = max(float(fhat.max()), -tmin)
    origin = (0,) * n
    bound = _Q**n * fr[origin] / fhat[origin]
    target = lovasz_bound(n) * sol.objective
    ok = (
        worst <= 1e-9 * max(1.0, scale)
        and tmin >= -1e-9 * max(1.0, hatscale)
        and abs(bound - target) <= 1e-6 * max(1.0, abs(target))
    )
    detail = (
        f"bound={bound:.12g} target={target:.12g} "
        f"support_max={worst:.3e} transform_min={tmin:.3e}"
    )
    return CertificateReport(bool(ok), float(bound), worst, tmin, detail)


def max_code(n: int, d):
    """Exact maximum code size for length n and typewriter distance >= d.

    Returns the size and the lexicographically first maximum code, a clique
    of the compatibility graph on all 5^n words (words in base-5 order, an
    edge where the distance is at least d).

    Typewriter distance depends only on the difference x - y in Z_5^n, so
    the compatibility graph is a Cayley graph: translating any maximum code
    by minus one of its words gives a maximum code that contains the zero
    word.  Word 0 is first in the scan order, and a sorted code that holds
    it precedes every sorted code that does not, so the lex-first maximum
    code holds word 0.  The search therefore fixes word 0 and branches only
    over its compatible neighbours, which returns the same witness.

    The search then runs two passes over one bitset graph.  A greedy
    colouring of a node's candidates into classes of pairwise incompatible
    words bounds what the node can add, since a code meets each class at
    most once.  The size pass branches in the order of Tomita and Seki's
    MCQ, highest class first, and leaves a node once its depth plus the
    class number cannot beat the best size found; it returns only a number,
    so its order is free.  The witness pass scans words in lex order,
    prunes every node whose colouring cannot reach that size, and returns
    the first code of that size it meets.  No pruned branch holds a code of
    that size, so the first one met is the lex-first maximum code.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if 5**n > 500:
        raise ValueError(f"clique search limited to 5^n <= 500, got n = {n}")
    # normalize before the cache so every d > n shares the d = inf entry
    return _max_code_impl(n, _normalize_d(n, d))


@functools.lru_cache(maxsize=None)
def _max_code_impl(n: int, d):
    import itertools

    words = list(itertools.product(range(5), repeat=n))
    nv = len(words)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            dist = word_distance(words[i], words[j])
            compatible = dist == INF if d == INF else dist >= d
            if compatible:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    size, clique = _max_clique_with_zero(adj)
    return size, tuple(words[v] for v in clique)


def _max_clique_with_zero(adj: list) -> tuple:
    """Size and ascending vertices of the lex-first maximum clique through 0.

    adj[v] is the bitset of the neighbours of v (symmetric, no loops).  The
    size pass and the witness pass are those described in max_code.
    """
    universe = (1 << len(adj)) - 1
    # bitsets are keyed by their lowest set bit so the hot loops never need
    # an index extraction; single-bit ints hash cheaply
    adj_by_bit = {1 << v: row for v, row in enumerate(adj)}
    conf_by_bit = {1 << v: universe & ~row & ~(1 << v) for v, row in enumerate(adj)}

    def colour_classes(pool: int) -> list:
        classes = []
        while pool:
            cls = 0
            can = pool
            while can:
                low = can & -can
                cls |= low
                can &= conf_by_bit[low]
            pool ^= cls
            classes.append(cls)
        return classes

    best = 0

    def grow(pool: int, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        classes = colour_classes(pool)
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if depth + k <= best:
                    return
                low = cls & -cls
                cls ^= low
                grow(pool & adj_by_bit[low], depth + 1)
                pool ^= low

    def scan(chosen: list, pool: int, depth: int) -> bool:
        if depth == best:
            return True
        # class tops in falling order: the classes whose highest vertex is at
        # least v colour the candidates from v up, a bound that falls with v
        tops = sorted((cls.bit_length() for cls in colour_classes(pool)), reverse=True)
        while pool:
            low = pool & -pool
            while tops[-1] < low.bit_length():
                tops.pop()
            if depth + len(tops) < best:
                return False
            pool ^= low
            chosen.append(low)
            if scan(chosen, pool & adj_by_bit[low], depth + 1):
                return True
            chosen.pop()
        return False

    grow(adj[0], 1)
    chosen = [1]
    scan(chosen, adj[0], 1)
    return best, [b.bit_length() - 1 for b in chosen]


def save_certificate(sol: LPSolution, path) -> None:
    """Write an LPSolution as a small key-value text file."""
    lines = [
        "# distance LP certificate",
        f"n {sol.n}",
        f"d {'inf' if sol.d == INF else int(sol.d)}",
        f"qprime {_fmt(QPRIME)}",
        f"status {sol.status}",
        f"objective {_fmt(sol.objective)}",
        "lam " + " ".join(_fmt(v) for v in sol.lam),
        "Lambda " + " ".join(_fmt(v) for v in sol.Lambda),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_certificate(path) -> LPSolution:
    """Read a save_certificate file.

    A file that lacks one of the save_certificate keys, whose qprime is not
    sqrt 5, whose n is below 1, whose d is not a positive integer or inf, or
    whose lam or Lambda does not hold n + 1 values is refused with ValueError.
    """
    fields = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            fields[key] = rest
    for key in ("n", "d", "qprime", "status", "objective", "lam", "Lambda"):
        if key not in fields:
            raise ValueError(f"certificate has no {key} line")
    qprime = float(fields["qprime"])
    if abs(qprime - QPRIME) > 1e-9:
        raise ValueError(f"certificate qprime {qprime} is not sqrt 5")
    n = int(fields["n"])
    if n < 1:
        raise ValueError(f"certificate length n = {n} must be at least 1")
    d = INF if fields["d"] == "inf" else int(fields["d"])
    if d < 1:
        raise ValueError(f"certificate distance d = {d} must be a positive integer or inf")
    lam = tuple(float(v) for v in fields["lam"].split())
    Lambda = tuple(float(v) for v in fields["Lambda"].split())
    if len(lam) != n + 1 or len(Lambda) != n + 1:
        raise ValueError(
            f"certificate needs n + 1 = {n + 1} values of lam and of Lambda, "
            f"has {len(lam)} and {len(Lambda)}"
        )
    return LPSolution(
        n=n,
        d=float(d),
        lam=lam,
        Lambda=Lambda,
        objective=float(fields["objective"]),
        status=fields["status"],
    )
