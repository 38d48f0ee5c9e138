"""Bound curves for the reliability function of the 5-ary typewriter channel.

The channel maps input i to i or i+1 (mod 5) with probability 1/2 each.  Its
zero-error capacity is log2 sqrt(5) and its Shannon capacity is log2(5/2);
between those two rates five bounds on the reliability function E(R) are
evaluated here:

  e_rex      random coding / expurgated lower bound, log2(5/2) - R
  e_sl       straight line upper bound through (log2 sqrt5, 1) and (log2(5/2), 0)
  e_sl_star  the same straight line scaled onto the improved endpoint value
  e_gv_star  lower bound from a Gilbert-Varshamov style code construction
  e_lp1      upper bound defined implicitly through a linear-programming
             rate bound at imaginary alphabet size sqrt(5)

The construction behind e_gv_star has its own exponent at inner rate r,
optimize_exponent, over the GV distance gv_delta.  All rates and exponents
are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import LOG5, QPRIME, bisect_root, qary_entropy

__all__ = [
    "ZERO_ERROR_CAPACITY",
    "CAPACITY",
    "GV_SLOPE",
    "SL_STAR_FACTOR",
    "e_rex",
    "e_sl",
    "e_sl_star",
    "r_star",
    "delta_of_r",
    "e_gv_star",
    "gv_delta",
    "ExponentResult",
    "optimize_exponent",
    "r_lp1",
    "e_lp1",
    "sample_curves",
    "CURVE_COLUMNS",
]

ZERO_ERROR_CAPACITY = 0.5 * LOG5
CAPACITY = LOG5 - 1.0

# slope of the GV-style bound: 4/3 - H2(1/3)
GV_SLOPE = 4.0 / 3.0 - qary_entropy(1.0 / 3.0, 2.0)
# scaling that moves the straight line onto the LP value at the zero-error rate
SL_STAR_FACTOR = 1.0 - 1.0 / QPRIME
# the Plotkin point: the end of r_lp1's domain and e_lp1's value at log2 sqrt5
_PLOTKIN = (QPRIME - 1.0) / QPRIME

_EDGE_TOL = 1e-12


def _check_rate(r: float, lo: float, hi: float) -> float:
    """Clamp r into [lo, hi] when within 1e-12, else raise (NaN included)."""
    if not lo - _EDGE_TOL <= r <= hi + _EDGE_TOL:
        raise ValueError(f"rate {r!r} outside [{lo}, {hi}]")
    return min(max(r, lo), hi)


def e_rex(r: float) -> float:
    """Random coding exponent log2(5/2) - R on [log2 sqrt5, log2(5/2)]."""
    r = _check_rate(r, ZERO_ERROR_CAPACITY, CAPACITY)
    return CAPACITY - r


def e_sl(r: float) -> float:
    """Straight line from (log2 sqrt5, 1) down to (log2(5/2), 0)."""
    r = _check_rate(r, ZERO_ERROR_CAPACITY, CAPACITY)
    return (CAPACITY - r) / (ZERO_ERROR_CAPACITY - 1.0)


def e_sl_star(r: float) -> float:
    """Straight line rescaled so its left endpoint equals 1 - 1/sqrt5."""
    return SL_STAR_FACTOR * e_sl(r)


def r_star() -> float:
    """Rate where the GV-style bound leaves the random coding line."""
    return LOG5 - 0.5 * qary_entropy(0.25, 2.0) - 0.75


def _gv_rate(delta: float) -> float:
    return LOG5 - 2.0 * delta - 0.5 * qary_entropy(2.0 * delta, 2.0)


def delta_of_r(r: float) -> float:
    """The unique delta in [3/8, 2/5] with log5 - 2d - H2(2d)/2 = r.

    The map is strictly decreasing on that bracket, from r_star down to
    log2 sqrt5, where it has a tangential root at delta = 2/5 (the closed
    form H2(4/5) = log2(5) - 8/5 makes the endpoint exact).  bisect_root
    accepts the endpoint root directly, so r = log2 sqrt5 returns 0.4.
    """
    r = _check_rate(r, ZERO_ERROR_CAPACITY, r_star())
    return bisect_root(lambda d: _gv_rate(d) - r, 0.375, 0.4)


def e_gv_star(r: float) -> float:
    """GV-construction lower bound; follows e_rex above r_star."""
    r = _check_rate(r, ZERO_ERROR_CAPACITY, CAPACITY)
    if r <= r_star():
        return GV_SLOPE * delta_of_r(r)
    return e_rex(r)


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
        exponent = d_gv * GV_SLOPE
    return ExponentResult(r, d_gv, delta_star, tau_star, exponent)


def r_lp1(delta: float) -> float:
    """First linear-programming rate bound at alphabet parameter q = sqrt 5.

    H_q(((q-1) - (q-2)*delta - 2*sqrt((q-1)*delta*(1-delta))) / q) for delta
    in [0, (q-1)/q], where it falls from log2 q to 0.  Past the Plotkin point
    (q-1)/q the formula's other branch rises again, so such delta are
    refused.  Small negative entropy arguments from rounding are clamped
    to 0.
    """
    if not 0.0 <= delta <= _PLOTKIN:
        raise ValueError(f"delta {delta!r} outside [0, {_PLOTKIN!r}]")
    q = QPRIME
    arg = ((q - 1.0) - (q - 2.0) * delta - 2.0 * math.sqrt((q - 1.0) * delta * (1.0 - delta))) / q
    if arg < 0.0:
        if arg < -1e-9:
            raise ValueError(f"entropy argument {arg!r} outside [0, 1] for delta={delta!r}")
        arg = 0.0
    return qary_entropy(arg, q)


def e_lp1(r: float) -> float:
    """Upper bound defined by r = log2 sqrt5 + r_lp1(sqrt5, E), solved for E.

    Defined for r in [log2 sqrt5, log2 5]; the solution decreases from
    1 - 1/sqrt5 at the left endpoint to 0 at log2 5.  Both endpoints are
    returned exactly: near them the defining map is too flat in E for a
    residual-driven search to pin the value to full precision.
    """
    e_max = _PLOTKIN
    r = _check_rate(r, ZERO_ERROR_CAPACITY, LOG5)
    if abs(r - ZERO_ERROR_CAPACITY) <= _EDGE_TOL:
        return e_max
    if abs(r - LOG5) <= _EDGE_TOL:
        return 0.0
    return bisect_root(lambda e: ZERO_ERROR_CAPACITY + r_lp1(e) - r, 0.0, e_max)


CURVE_COLUMNS = ("E_rex", "E_sl", "E_sl_star", "E_gv_star", "E_lp1")
_CURVE_FUNCS = (e_rex, e_sl, e_sl_star, e_gv_star, e_lp1)


def _grid(lo: float, hi: float, samples: int) -> list[float]:
    """samples equally spaced points lo + (hi - lo) i / (samples - 1)."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]


def sample_curves(rmin: float, rmax: float, samples: int) -> list[tuple[float, ...]]:
    """Rows (R, E_rex, E_sl, E_sl_star, E_gv_star, E_lp1) on an equally
    spaced rate grid whose last rate is rmax exactly."""
    rmin = _check_rate(rmin, ZERO_ERROR_CAPACITY, CAPACITY)
    rmax = _check_rate(rmax, ZERO_ERROR_CAPACITY, CAPACITY)
    if rmax < rmin:
        raise ValueError(f"empty rate window [{rmin}, {rmax}]")
    rates = _grid(rmin, rmax, samples)
    rates[-1] = rmax
    return [(r, *(func(r) for func in _CURVE_FUNCS)) for r in rates]


def _fmt(x) -> str:
    """A float to 17 significant digits, enough to round-trip, with inf, -inf
    and nan as is; anything else, such as an int or a str, by str."""
    return format(x, ".17g") if isinstance(x, float) else str(x)
