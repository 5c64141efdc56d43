"""Outer-loop behaviour: monotone traces, termination reasons, feasibility."""

import numpy as np
import pytest
from numpy.random import default_rng

from ssnnls.core import GroupedCoeffs, GroupedDictionary, SparsityConfig, eval_objective_p1, eval_objective_p2
from ssnnls.errors import NonConvergenceError
from ssnnls import sgp
from ssnnls import qp
from ssnnls.qp import QpSolution
from ssnnls.sgp import (TERM_ENERGY, TERM_MAX_OUTER, TERM_STEP, SgpParams,
                        check_descent_estimate, solve_problem1, solve_problem2)

from oracles import fd_gradient


def make_problem(seed, n_rows=24, sizes=(3, 3, 2), noise=0.01):
    rng = default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    n = int(offsets[-1])
    dct = GroupedDictionary(rng.normal(size=(n_rows, n)), offsets)
    x_true = np.zeros(n)
    for j in range(len(sizes)):
        x_true[offsets[j] + rng.integers(sizes[j])] = rng.uniform(0.5, 1.5)
    b = dct.entries @ x_true + noise * rng.normal(size=n_rows)
    cfg = SparsityConfig(gamma=np.full(len(sizes), 0.05), gamma0=0.02,
                         eps=np.full(len(sizes), 0.05), r=1.0)
    return dct, b, cfg


def assert_p1_feasible(dct, cfg, coeffs, tol=1e-7):
    n_con = cfg.n_constrained(dct.n_groups)
    pre = int(dct.offsets[n_con])
    assert coeffs.x[:pre].min() >= -tol
    assert coeffs.d.min() >= -tol
    for j in range(n_con):
        sl = dct.group_slice(j)
        assert np.sum(coeffs.x[sl]) + coeffs.d[j] >= cfg.eps[j] - tol
    assert np.sum(coeffs.d / cfg.eps[:n_con]) <= cfg.budget(dct.n_groups) + tol


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_problem2_trace_monotone_and_stationary(seed):
    dct, b, cfg = make_problem(seed)
    report = solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-12))
    trace = np.asarray(report.objective_trace)
    assert trace.size == report.outer_iters + 1
    assert np.all(np.diff(trace) <= 1e-12)
    assert report.termination in (TERM_STEP, TERM_ENERGY)
    x = report.final.x
    assert x.min() >= -1e-12
    grad = eval_objective_p2(dct, b, report.final, cfg).grad_x
    rng = default_rng(seed + 500)
    for _ in range(200):
        y = rng.uniform(0.0, 2.0, size=x.size)
        diff = y - x
        assert diff @ grad >= -1e-4 * np.linalg.norm(diff)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_problem1_trace_monotone_and_feasible(seed):
    dct, b, cfg = make_problem(seed)
    report = solve_problem1(dct, b, cfg, SgpParams(tol_energy=1e-12))
    trace = np.asarray(report.objective_trace)
    assert trace.size == report.outer_iters + 1
    assert np.all(np.diff(trace) <= 1e-12)
    assert report.termination in (TERM_STEP, TERM_ENERGY)
    assert report.final.d is not None
    assert_p1_feasible(dct, cfg, report.final)
    assert all(c > 0 for c in report.c_trace)


def test_problem2_zero_weights_matches_nnls():
    from scipy.optimize import nnls

    dct, b, _ = make_problem(11)
    cfg = SparsityConfig(gamma=np.zeros(3), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    report = solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-14, max_outer=300))
    x_ref = nnls(dct.entries, b)[0]
    assert report.final.x == pytest.approx(x_ref, abs=2e-6)


def test_problem2_termination_step(monkeypatch):
    monkeypatch.setattr(sgp, "TOL_STEP", 1e30)
    dct, b, cfg = make_problem(5)
    report = solve_problem2(dct, b, cfg, SgpParams())
    assert report.termination == TERM_STEP
    assert report.outer_iters == 1


def test_problem2_termination_max_outer():
    dct, b, cfg = make_problem(5)
    report = solve_problem2(dct, b, cfg, SgpParams(tol_energy=0.0, max_outer=2))
    assert report.termination == TERM_MAX_OUTER
    assert report.outer_iters == 2


@pytest.mark.parametrize("problem, tol", [("p1", 1e-10), ("p2", 1e-6)])
def test_energy_stop_is_relative_to_the_objective(problem, tol):
    # with the data scaled by 1e3 the objective is ~1e3, so the stop comes
    # at a change ~1e3 times larger than an absolute test would need
    dct, b, cfg = make_problem(7)
    if problem == "p1":
        report = solve_problem1(dct, 1e3 * b, cfg, SgpParams(tol_energy=tol))
    else:
        report = solve_problem2(dct, 1e3 * b, cfg, SgpParams(tol_energy=tol))
    assert report.termination == TERM_ENERGY
    trace = np.asarray(report.objective_trace)
    changes = np.abs(np.diff(trace))
    assert changes[-1] <= tol * abs(trace[-1])
    assert np.all(changes[:-1] > tol * np.abs(trace[1:-1]))
    assert report.outer_iters >= 2


def test_problem2_non_descending_step_ends_as_energy_tol(monkeypatch):
    # an exact model minimiser that raises the objective is not re-solved
    dct, b, cfg = make_problem(5)
    calls = []

    def fake_solve(sub, *args):
        calls.append(args)
        return QpSolution(sub.anchor + 10.0, None)

    monkeypatch.setattr(sgp, "solve_qp_p2", fake_solve)
    report = solve_problem2(dct, b, cfg, SgpParams())
    assert report.termination == TERM_ENERGY
    assert report.outer_iters == 0
    assert len(calls) == 1


def test_problem1_model_no_better_than_the_anchor_ends_as_energy_tol(monkeypatch):
    # a model minimiser with a positive model value is not re-solved
    dct, b, cfg = make_problem(5)
    calls = []

    def fake_solve(sub):
        calls.append(sub)
        return QpSolution(sub.anchor + 10.0, sub.anchor_d + 10.0)

    monkeypatch.setattr(sgp, "solve_qp_p1", fake_solve)
    report = solve_problem1(dct, b, cfg, SgpParams())
    assert report.termination == TERM_ENERGY
    assert report.outer_iters == 0
    assert len(calls) == 1


@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_failing_cold_first_solve_propagates(problem, monkeypatch):
    # a step's active set that hits its cap ends the solve: no retry, no
    # fallback
    dct, b, cfg = make_problem(5)
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    real = getattr(sgp, f"solve_qp_{problem}")
    calls = []

    def counting(sub, *args):
        calls.append(sub)
        return real(sub, *args)

    monkeypatch.setattr(sgp, f"solve_qp_{problem}", counting)
    solve = solve_problem1 if problem == "p1" else solve_problem2
    with pytest.raises(NonConvergenceError, match="did not converge in 0 iterations"):
        solve(dct, b, cfg, SgpParams())
    assert len(calls) == 1


def test_problem2_rejects_bad_init_shape():
    dct, b, cfg = make_problem(5)
    with pytest.raises(ValueError):
        solve_problem2(dct, b, cfg, init=GroupedCoeffs(np.ones(3)))


def test_problem2_singular_model_is_a_value_error():
    # more columns than rows and no shift: G + 2C cannot be factored
    rng = default_rng(3)
    dct = GroupedDictionary(rng.normal(size=(5, 8)), np.array([0, 3, 6, 8]))
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    with pytest.raises(ValueError, match="c_matrix_scale"):
        solve_problem2(dct, rng.normal(size=5), cfg, SgpParams(c_matrix_scale=0.0))


def test_problem2_trace_bookkeeping(monkeypatch):
    dct, b, cfg = make_problem(7)
    real = sgp.solve_qp_p2
    steps = []

    def counting(sub, free=None):
        sol = real(sub, free)
        steps.append(sol.iterations)
        return sol

    monkeypatch.setattr(sgp, "solve_qp_p2", counting)
    report = solve_problem2(dct, b, cfg, SgpParams())
    assert len(report.step_trace) == report.outer_iters
    assert len(report.c_trace) == report.outer_iters
    # every step's active-set iterations, the last (unaccepted) step's too
    assert len(steps) >= report.outer_iters and min(steps) >= 1
    assert report.inner_iters_total == sum(steps)
    assert set(report.c_trace) == {SgpParams().c_matrix_scale}


def test_problem1_trace_bookkeeping(monkeypatch):
    # a decrease test asking for more than the model promises rejects
    # candidates; their active-set iterations count too
    monkeypatch.setattr(sgp, "SIGMA", 1.5)
    dct, b, cfg = make_problem(7)
    real = sgp.solve_qp_p1
    steps = []

    def counting(sub):
        sol = real(sub)
        steps.append(sol.iterations)
        return sol

    monkeypatch.setattr(sgp, "solve_qp_p1", counting)
    report = solve_problem1(dct, b, cfg, SgpParams())
    assert len(report.step_trace) == report.outer_iters
    assert len(report.c_trace) == report.outer_iters
    assert len(steps) > report.outer_iters + 1 and min(steps) >= 1
    assert report.inner_iters_total == sum(steps)


def test_problem1_repairs_infeasible_init():
    dct, b, cfg = make_problem(9)
    init = GroupedCoeffs(np.zeros(dct.n_columns))  # violates every floor, no dummies
    report = solve_problem1(dct, b, cfg, SgpParams(max_outer=3, tol_energy=0.0), init=init)
    assert_p1_feasible(dct, cfg, report.final)
    assert np.isfinite(report.objective_trace).all()


def test_problem1_rejection_storm_raises(monkeypatch):
    monkeypatch.setattr(sgp, "SIGMA", 1e8)
    monkeypatch.setattr(sgp, "MAX_REJECTIONS", 1)
    dct, b, cfg = make_problem(3)
    with pytest.raises(NonConvergenceError) as info:
        solve_problem1(dct, b, cfg, SgpParams())
    assert info.value.iterations is not None


def test_determinism_and_shared_workspace():
    # two solves on one dictionary share its cached Gram matrix
    dct, b, cfg = make_problem(13)
    runs = [solve_problem2(dct, b, cfg, SgpParams()) for _ in range(2)]
    fresh = solve_problem2(GroupedDictionary(dct.entries, dct.offsets), b, cfg, SgpParams())
    assert np.array_equal(runs[0].final.x, runs[1].final.x)
    assert runs[0].objective_trace == runs[1].objective_trace
    assert fresh.final.x == pytest.approx(runs[0].final.x, abs=1e-9)


def test_descent_estimate_brackets_objective_change():
    dct, b, cfg = make_problem(21)
    rng = default_rng(21)
    n = dct.n_columns
    at = GroupedCoeffs(rng.uniform(0.1, 1.0, size=n))
    to = GroupedCoeffs(np.maximum(at.x + 0.05 * rng.normal(size=n), 0.0))
    assert check_descent_estimate(dct, b, cfg, at, to, 0.0, 1e6, problem="p2")
    assert not check_descent_estimate(dct, b, cfg, at, to, 0.0, -1e6, problem="p2")

    n_con = cfg.n_constrained(dct.n_groups)
    at1 = GroupedCoeffs(at.x, rng.uniform(0.1, 0.5, size=n_con))
    to1 = GroupedCoeffs(to.x, at1.d + 0.02 * rng.normal(size=n_con))
    assert check_descent_estimate(dct, b, cfg, at1, to1, 0.0, 1e6, problem="p1")
    with pytest.raises(ValueError):
        check_descent_estimate(dct, b, cfg, at, to, 0.0, 1.0, problem="p3")


def test_descent_estimate_exact_for_quadratic_part():
    # with zero penalty weights the objective is quadratic, so the bound
    # with lambda_r = lambda_big = 0 holds with equality
    dct, b, _ = make_problem(23)
    cfg = SparsityConfig(gamma=np.zeros(3), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    rng = default_rng(23)
    at = GroupedCoeffs(rng.uniform(0.1, 1.0, size=dct.n_columns))
    to = GroupedCoeffs(rng.uniform(0.1, 1.0, size=dct.n_columns))
    assert check_descent_estimate(dct, b, cfg, at, to, 0.0, 0.0, problem="p2")


def test_objective_gradients_match_fd_on_random_points():
    dct, b, cfg = make_problem(29)
    rng = default_rng(29)
    n = dct.n_columns
    n_con = cfg.n_constrained(dct.n_groups)
    x = rng.uniform(0.2, 1.0, size=n)
    ev = eval_objective_p2(dct, b, GroupedCoeffs(x), cfg)
    fd = fd_gradient(lambda z: eval_objective_p2(dct, b, GroupedCoeffs(z), cfg).value, x)
    assert ev.grad_x == pytest.approx(fd, rel=1e-6, abs=1e-8)

    d = rng.uniform(0.1, 0.4, size=n_con)
    ev1 = eval_objective_p1(dct, b, GroupedCoeffs(x, d), cfg)
    fdx = fd_gradient(lambda z: eval_objective_p1(dct, b, GroupedCoeffs(z, d), cfg).value, x)
    fdd = fd_gradient(lambda z: eval_objective_p1(dct, b, GroupedCoeffs(x, z), cfg).value, d)
    assert ev1.grad_x == pytest.approx(fdx, rel=1e-6, abs=1e-8)
    assert ev1.grad_d == pytest.approx(fdd, rel=1e-6, abs=1e-8)
