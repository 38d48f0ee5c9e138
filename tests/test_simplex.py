"""Two-phase simplex solver against known instances and a reference solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from typewriter_bounds import simplex
from typewriter_bounds.simplex import simplex_solve

_SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def test_beale_cycling_instance():
    # classic degenerate instance that cycles without an anti-cycling rule
    res = simplex_solve(
        [-0.75, 150.0, -0.02, 6.0],
        A_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0],
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-12)
    assert np.allclose(res.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)
    assert res.iterations <= 20


def test_infeasible_and_unbounded():
    assert simplex_solve([1.0], A_ub=[[1.0]], b_ub=[-1.0]).status == "infeasible"
    assert simplex_solve([-1.0], A_ub=[[-1.0]], b_ub=[0.0]).status == "unbounded"


def test_negative_rhs_rows_are_handled():
    # -x <= -2 states x >= 2
    res = simplex_solve([1.0], A_ub=[[-1.0]], b_ub=[-2.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-12)


def test_iteration_limit_reports_failure(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    res = simplex_solve([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[4.0])
    assert res.status == "numeric-failure"


def test_matches_reference_solver_on_random_instances():
    rng = np.random.default_rng(20240817)
    for i in range(40):
        m = int(rng.integers(1, 6))
        nvar = int(rng.integers(1, 6))
        c = rng.normal(size=nvar)
        A = rng.normal(size=(m, nvar))
        b = rng.normal(size=m)
        mine = simplex_solve(c, A_ub=A, b_ub=b)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * nvar, method="highs")
        want = _SCIPY_STATUS.get(ref.status)
        assert mine.status == want, (i, mine.status, ref.status)
        if want == "optimal":
            assert mine.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-9), i


def test_solution_is_feasible():
    rng = np.random.default_rng(5)
    c = rng.normal(size=4)
    # x = 0 is feasible and a simplex row caps the region, so optimal exists
    A = np.vstack([rng.normal(size=(3, 4)), np.ones(4)])
    b = np.concatenate([np.abs(rng.normal(size=3)) + 0.1, [10.0]])
    res = simplex_solve(c, A_ub=A, b_ub=b)
    assert res.status == "optimal"
    assert (res.x >= -1e-12).all()
    assert (A @ res.x <= b + 1e-9).all()


def test_artificial_left_basic_at_zero_is_driven_out():
    # x <= 1 and x >= 1: phase 1 ends with the second row's artificial basic
    # at zero, and only the drive-out pivot keeps phase 2 from moving x to 0
    res = simplex_solve([1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -1.0])
    assert res.status == "optimal"
    assert res.x.tolist() == [1.0]
    assert res.objective == 1.0


def test_singular_re_solve_returns_the_clamped_tableau_point(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    # min x1 s.t. 3 x1 <= 0.1 and 0.3 x2 <= 0.2 x1: the only optimum is 0, and
    # the tableau's pivots leave x2 at -3.5e-18
    res = simplex_solve([1.0, 0.0], A_ub=[[3.0, 0.0], [-0.2, 0.3]], b_ub=[0.1, 0.0])
    assert res.status == "optimal"
    assert res.x.tolist() == [0.0, 0.0]
    assert res.objective == 0.0
