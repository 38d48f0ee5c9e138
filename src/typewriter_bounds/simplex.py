"""Dense two-phase primal simplex with Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  x >= 0  (inequality form only) on a
plain numpy tableau.  Bland's smallest-index rule is used for both the
entering and the leaving variable, so the method cannot cycle; the iteration
cap is only a circuit breaker for numerical breakdown.  One re-solve of the
final basis against the pristine data gives the point returned.  Problems
here have a few hundred rows at most: no effort goes to sparsity or pricing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "simplex_solve"]

_FEAS_TOL = 1e-7
_TOL = 1e-9  # pivot and pricing tolerance
_MAX_ITER = 20000  # pivots per phase sweep


@dataclass(frozen=True)
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | numeric-failure
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T, basis, allowed):
    """Run Bland pivots until optimal/unbounded, return (status, count)."""
    m = T.shape[0] - 1
    for it in range(_MAX_ITER):
        enter = -1
        for j in allowed:
            if T[-1, j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal", it
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > _TOL:
                ratio = T[i, -1] / a
                if ratio < best - 1e-12 or (
                    ratio <= best + 1e-12 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", it
        _pivot(T, basis, leave, enter)
    return "numeric-failure", _MAX_ITER


def simplex_solve(c, A_ub, b_ub) -> SimplexResult:
    """Two-phase simplex for min c.x, A_ub x <= b_ub, x >= 0.

    "optimal" means phase 2 found no improving column.  Pivot error washes
    out the tableau on badly scaled columns, so the final basis is re-solved
    once against the pristine data; that point is returned if it is primal
    feasible to _FEAS_TOL relative, else the tableau's, clamped at 0 either way.
    """
    c = np.asarray(c, dtype=float)
    nstruct = c.size
    A = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b = np.atleast_1d(np.asarray(b_ub, dtype=float))
    m = A.shape[0]
    if A.shape[1] != nstruct:
        raise ValueError(f"constraint width {A.shape[1]} != len(c) = {nstruct}")

    # one slack column per row, then one artificial per row; a row with b < 0
    # is negated, but not its artificial, so the artificials form the basis
    full = np.hstack([A, np.eye(m), np.eye(m)])
    neg = b < 0
    full[neg, : nstruct + m] *= -1.0
    b = np.where(neg, -b, b)
    nvar = nstruct + m
    T = np.zeros((m + 1, nvar + m + 1))
    T[:m, :-1] = full
    T[:m, -1] = b
    basis = np.arange(nvar, nvar + m)

    # phase 1: minimize the artificial sum, priced out for the initial basis
    T[-1, nvar : nvar + m] = 1.0
    for i in range(m):
        T[-1] -= T[i]
    T[-1, nvar : nvar + m] = 0.0  # keep priced-out zeros exact
    status, it1 = _iterate(T, basis, range(nvar + m))
    if status != "optimal":
        return SimplexResult("numeric-failure", None, None, it1)
    if -T[-1, -1] > _FEAS_TOL:
        return SimplexResult("infeasible", None, None, it1)

    # drive leftover artificials out of the basis where the row allows it
    for i in range(m):
        if basis[i] >= nvar:
            for j in range(nvar):
                if abs(T[i, j]) > _TOL:
                    _pivot(T, basis, i, j)
                    break

    # phase 2: real objective, priced out for the current basis
    T[-1, :] = 0.0
    T[-1, :nstruct] = c
    for i in range(m):
        if basis[i] < nstruct:
            T[-1] -= c[basis[i]] * T[i]
    status, it2 = _iterate(T, basis, range(nvar))
    if status != "optimal":
        return SimplexResult(status, None, None, it1 + it2)
    x = np.zeros(nvar + m)
    x[basis] = T[:m, -1]
    try:
        xb = np.linalg.solve(full[:, basis], b)
        if xb.min() >= -_FEAS_TOL * max(1.0, float(np.abs(xb).max())):
            x[basis] = xb
    except np.linalg.LinAlgError:
        pass
    xs = np.maximum(x[:nstruct], 0.0)
    return SimplexResult("optimal", xs, float(c @ xs), it1 + it2)
