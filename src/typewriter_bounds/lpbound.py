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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import _fmt
from .fourier import _COS, _Q, _SIZE_GUARD, _check_size, lovasz_bound
from .scalars import (
    _POWERS, INF, QPRIME, _check_length, _krawtchouk_row, krawtchouk, word_distance
)
from .simplex import simplex_solve

__all__ = [
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
    # not d >= 1 refuses NaN and -inf too, before int() could raise on them
    if not d >= 1 or d != INF and d != int(d):
        raise ValueError(f"distance {d} must be a positive integer or inf")
    if d != INF:
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
    _check_length(n)
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
    lam = np.concatenate([[1.0], res.x / k0])
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


def first_root(n: int, ell: int) -> float:
    """Smallest zero of u -> K_ell(u): the smallest eigenvalue of the
    ell x ell Jacobi matrix of the three-term recurrence (Golub and Welsch,
    1969), one eigvalsh of at most 64 x 64.  Roots fall strictly with ell;
    tests/test_lpbound.py decides the sign of K_ell exactly in Q(sqrt 5) on
    either side of them.
    """
    if ell < 1:
        raise ValueError("K_0 has no root")
    if ell > n:
        raise ValueError(f"degree {ell} outside [1, {n}]")
    _check_length(n)
    levels = np.arange(ell)
    diagonal = ((QPRIME - 1.0) * (n - levels) + levels) / QPRIME
    off = np.sqrt(levels[1:] * (QPRIME - 1.0) * (n - levels[:-1])) / QPRIME
    jacobi = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(jacobi)[0])


def mrrw_certificate(n: int, d: int, t: int, a: float) -> LPSolution:
    """Christoffel-Darboux multiplier at degree t and reference point a.

    Lambda(u) = (a - u)^-1 (K_t(a) K_{t+1}(u) - K_{t+1}(a) K_t(u))^2, which
    is <= 0 for u > a automatically; the multipliers come from Krawtchouk
    orthogonality with weight (q'-1)^u C(n, u) and are then normalized to
    lam_0 = 1.  Positivity of the lam_ell depends on the choice of (t, a)
    and is left to the caller (see mrrw_params).  A d that
    solve_distance_lp refuses is refused with the same ValueError.
    """
    _normalize_d(n, d)  # refuses what solve_distance_lp refuses
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
    """The Christoffel-Darboux certificate of McEliece, Rodemich, Rumsey
    and Welch (1977): a = d - 1e-6 and the degree t whose first roots
    bracket it, first_root(n, t + 1) < a < first_root(n, t), so that K_t(a)
    and K_{t+1}(a) keep their signs.  Roots fall with t, so at most one t
    in 1..min(n - 1, n // 2 + 1) qualifies.  Returns (t, a, objective), or
    None when no degree there brackets a (whenever d is above the first
    root of K_1, about 0.553 n, at d = 1 for most n >= 29, and at d > n),
    lam_0 is not positive, or a lam_ell is below -1e-9 max lam.  A d that
    solve_distance_lp refuses is refused with the same ValueError.
    """
    a = _normalize_d(n, d) - 1e-6  # inf past d = n, which no degree brackets
    root_next = first_root(n, 1)
    for t in range(1, min(n, n // 2 + 2)):
        root_t, root_next = root_next, first_root(n, t + 1)
        if root_next < a < root_t:
            break
    else:
        return None
    try:
        sol = mrrw_certificate(n, d, t, a)
    except ArithmeticError:
        return None
    lam = np.array(sol.lam)
    if lam.min() < -1e-9 * lam.max():
        return None
    return t, a, sol.objective


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


def certificate_function(sol: LPSolution) -> np.ndarray:
    """Product witness times sphere multiplier, as a (5,)*n array on Z_5^n.

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
    return values


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
    over its compatible neighbours, which returns the same witness.  The
    same fact builds the graph: each d thresholds one table per length, the
    weight of every word (one word_distance to word 0 each) read at the
    index of each difference w_j - w_i.  That table and the root maps
    below are cached per n and shared by every d.

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

    Both passes prune by symmetry, by one rule at every node.  The maps
    x -> M(x) + t keep the distance: M permutes coordinates and negates any
    of them (one of 2^n n! root maps, as w(-a) = w(a)), and adding a word t
    keeps it in a Cayley graph.  A node prunes by those that fix its chosen
    words setwise, found once one of its branches is done: all of them
    while at most three words are chosen, deeper those of the node above
    that fix the newest word, until only the identity is left.  Such a map
    carries a code through the chosen words and u onto one through them and
    u's image, so once the size pass has searched every code through them
    and u, it drops u's orbit (at n = 3 the root branches at most 9 times).

    The witness pass drops orbits too, for another reason.  At a prefix S
    no code of the target size has a lex-smaller prefix, so every such code
    that holds S starts with S, and its next word is its least word outside
    S.  When a branch u fails, every candidate below u has failed or been
    dropped, so no code of the target size holds S and u.  A map that fixes
    S setwise then rules out u's image as well.  Only words that no code of
    the target size holds together with S are dropped, so the first code
    met is still the lex-first.

    Both passes also skip dominated branches.  A node keeps the candidates
    C(u) = pool & adj[u] of each branch u it has searched (size pass) or
    that failed (witness pass), and drops a word w without a search when
    C(w) is a subset of one of them.  A code of the chosen words S, w and
    K, K a subset of C(w), gives one of the same size of S, u and K: u is
    compatible with all of C(u), which holds K, and u is not in K.  In the
    size pass u's branch has been searched against the best size, so w's
    cannot beat it.  In the witness pass a code of the target size that
    holds S and w is S, w and words of C(w), as above (w is its least word
    outside S, and no later word of it was dropped), so it would give one
    that holds S and u, which u's failure rules out.  Only such words are
    dropped, so the first code met is still the lex-first.  The sets live
    as long as their node, so at most depth times branching are held.

    Both passes also cap the code by first-symbol blocks.  The 5^(n-1)
    words with one first symbol are a contiguous run of the scan order, and
    two of them are exactly as far apart as their suffixes, since equal
    first symbols add 0 to the distance.  So a code meets each block in at
    most max_code(n - 1, d) words (1 at n = 1), and has at most 5 times
    that many.  The witness pass only adds words above the lowest word v of
    its candidates, so it prunes a node whose chosen words plus the room
    left in v's block plus the cap of each later block fall short of the
    size.  It runs first with the cap, 5 max_code(n - 1, d), as its target:
    a code of that size is maximum, and the first one met is the lex-first
    one, so at (2, 2) and (3, 2) this pass alone returns the answer.  Only
    when it finds none do the size pass and a second witness pass run.
    """
    # True == 1, so a bool would share an integer's cache entry
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, not {n!r}")
    if isinstance(d, (bool, np.bool_)):
        raise ValueError(f"d must be an integer or inf, not {d!r}")
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if 5**n > 500:
        raise ValueError(f"clique search limited to 5^n <= 500, got n = {n}")
    # normalize before the cache so every d > n shares the d = inf entry
    return _max_code_impl(n, _normalize_d(n, d))


@functools.lru_cache(maxsize=None)
def _length_tables(n: int) -> tuple:
    """The words of Z_5^n in base-5 order, the typewriter weight of each,
    the index of each difference w_j - w_i at [i, j], and the root maps,
    built once per length and shared by every d.

    Each weight is one word_distance to the zero word, and the distance of
    w_i and w_j is the weight at their difference, so no pair is measured.
    Row g of the root maps holds, at x, the index of the image of word x
    under one of the 2^n n! maps that permute coordinates and negate some:
    symbol i of the image is signs[i] * x[perm[i]], with perm running over
    itertools.permutations and, within each perm, signs over
    itertools.product((1, -1), repeat=n).
    """
    words = list(itertools.product(range(5), repeat=n))
    weights = np.array([word_distance(w, (0,) * n) for w in words])
    digits = np.array(words, dtype=np.intp)
    place = 5 ** np.arange(n - 1, -1, -1)
    diff = shift = (np.arange(5) - np.arange(5)[:, None]) % 5  # [a, b]: b - a in Z_5
    for _ in range(n - 1):  # one more leading symbol
        diff = (shift[:, None, :, None] * len(diff) + diff[None, :, None, :]).reshape(5 * len(diff), -1)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.intp)
    images = digits[:, perms][:, :, None, :] * signs % 5 @ place
    maps = np.ascontiguousarray(images.reshape(len(words), -1).T)
    for table in (weights, diff, maps):
        table.setflags(write=False)
    return tuple(words), weights, diff, maps


def _compatibility_rows(n: int, d) -> list:
    """adj[i]: the bitset of the words at distance >= d from word i (at
    infinity when d is inf), thresholded from the length's difference table."""
    _, weights, diff, _ = _length_tables(n)
    compatible = weights == INF if d == INF else weights >= d
    packed = np.packbits(compatible[diff], axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@functools.lru_cache(maxsize=None)
def _max_code_impl(n: int, d):
    words, _, diff, maps = _length_tables(n)
    # first-symbol blocks, capped by the cached search one length down (not
    # max_code, so a traced run records one span per search)
    run = 5 ** (n - 1)
    blocks = [((1 << run) - 1) << (run * a) for a in range(5)]
    cap = _max_code_impl(n - 1, _normalize_d(n - 1, d))[0] if n > 1 else 1
    size, clique = _max_clique_with_zero(_compatibility_rows(n, d), maps, diff, blocks, cap)
    return size, tuple(words[v] for v in clique)


def _node_maps(maps, swaps, chosen, parent):
    """Rows of images of the maps x -> M(x) + t, M a row of maps and t a
    chosen vertex, that map the chosen vertices onto themselves, or None
    for the identity alone; x -> x + t is row swaps[t, 0] of the difference
    table swaps (t = 0 only when swaps is None).  All such maps while at
    most three are chosen; deeper, the rows of parent that fix the newest."""
    if len(chosen) > 3:
        fixing = parent if parent is None else parent[parent[:, chosen[-1]] == chosen[-1]]
    else:
        images, rows = maps[:, chosen].tolist(), []
        for t in chosen if swaps is not None else chosen[:1]:
            onto = set(swaps[t, chosen].tolist() if t else chosen)  # the chosen set minus t
            kept = maps[[g for g, image in enumerate(images) if onto.issuperset(image)]]
            rows.append(swaps[swaps[t, 0], kept] if t else kept)
        fixing = np.concatenate(rows)
    return None if fixing is None or len(fixing) < 2 else fixing


def _max_clique_with_zero(adj: list, maps: np.ndarray, swaps, blocks: list, cap: int) -> tuple:
    """Size and ascending vertices of the lex-first maximum clique through 0.

    adj[v] is the bitset of the neighbours of v (symmetric, no loops).  Each
    row of the integer array maps is an automorphism of the graph that
    fixes vertex 0, given as the image of every vertex, and swaps is None
    or the difference table of a Cayley graph: [x, y] is the vertex y - x.
    The root prunes by all of maps and every other node by the maps that
    _node_maps finds for it, once one of its branches is done.  Any set of
    automorphisms is sound, and a group drops whole orbits; one identity
    row and no swaps use no symmetry.  blocks are bitsets of contiguous
    runs of vertices, in order, that partition them, and no clique meets a
    block more than cap times; one block of every vertex, capped by their
    number, prunes nothing.  The cap-first witness pass, the size pass and
    witness pass after it, the images they drop and the dominated branches
    they skip (a vertex whose candidates are a subset of those of a branch
    searched or failed at the same node) are those described in max_code.
    """
    universe = (1 << len(adj)) - 1
    # bitsets are keyed by their lowest set bit so the hot loops never need
    # an index extraction; single-bit ints hash cheaply
    adj_by_bit = {1 << v: row for v, row in enumerate(adj)}
    conf_by_bit = {1 << v: universe & ~row & ~(1 << v) for v, row in enumerate(adj)}
    block_by_bit = {1 << v: b for b, block in enumerate(blocks) for v in range(len(adj)) if block >> v & 1}
    # most a clique can still add from block b on, before counting its words in b
    room = [cap * (len(blocks) - b) for b in range(len(blocks))]
    bits = list(adj_by_bit)  # 1 << v at v
    # chosen[:depth]: a node's vertices; known[depth - 1]: its maps, ... until needed
    chosen, known = [0] * len(adj), [maps] + [...] * (len(adj) - 1)

    def fixing(depth: int):
        if known[depth - 1] is ...:
            known[depth - 1] = _node_maps(maps, swaps, chosen[:depth], fixing(depth - 1) if depth > 3 else None)
        return known[depth - 1]

    def images(low: int, depth: int) -> int:
        """The bitset of low's images under the maps of the node at depth."""
        rows = fixing(depth)
        return low if rows is None else sum(map(bits.__getitem__, set(rows[:, low.bit_length() - 1].tolist())))

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
        best = max(best, depth)
        classes = colour_classes(pool)
        searched = []  # the candidates of each branch already searched
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if depth + k <= best:
                    return
                low = cls & -cls
                cls ^= low
                if not pool & low:
                    continue  # an image of a branch already searched
                child = pool & adj_by_bit[low]
                for prev in searched:
                    if not child & ~prev:
                        pool ^= low  # dominated by a branch already searched
                        break
                else:
                    chosen[depth] = low.bit_length() - 1
                    known[depth] = ...
                    grow(child, depth + 1)
                    searched.append(child)
                    # every clique through the chosen words and an image of low
                    # maps onto one through them and low, which is now searched
                    pool &= ~images(low, depth)

    taken = [0] * len(blocks)  # chosen vertices per block

    def scan(pool: int, depth: int) -> bool:
        if depth == best:
            return True
        # class tops in falling order: the classes whose highest vertex is at
        # least v colour the candidates from v up, a bound that falls with v
        tops = sorted((cls.bit_length() for cls in colour_classes(pool)), reverse=True)
        failed = []  # the candidates of each branch that failed
        while pool:
            low = pool & -pool
            while tops[-1] < low.bit_length():
                tops.pop()
            b = block_by_bit[low]
            if depth + len(tops) < best or depth - taken[b] + room[b] < best:
                return False
            pool ^= low
            child = pool & adj_by_bit[low]
            if failed and any(not child & ~prev for prev in failed):
                continue  # dominated by a branch that failed
            chosen[depth] = low.bit_length() - 1
            known[depth] = ...
            taken[b] += 1
            if scan(child, depth + 1):
                return True
            taken[b] -= 1
            failed.append(child)
            # no clique of the target size holds the chosen words and low, so
            # none holds them and an image of low either
            pool &= ~images(low, depth)
        return False

    taken[block_by_bit[1]] = 1
    # a clique that meets the block cap is maximum, so the witness pass
    # aims at the cap first; only when no clique meets it does the size
    # pass find the size for a second witness pass
    best = cap * len(blocks)
    if not scan(adj[0], 1):
        best = 0
        grow(adj[0], 1)
        scan(adj[0], 1)
    return best, chosen[:best]


def save_certificate(sol: LPSolution, path) -> None:
    """Write an LPSolution as a small key-value text file."""
    lines = [
        "# distance LP certificate",
        f"n {sol.n}",
        f"d {_fmt(sol.d)}",
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
    if not abs(qprime - QPRIME) <= 1e-9:
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
