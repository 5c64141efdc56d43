"""Outer-loop behaviour: monotone traces, termination reasons, feasibility."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import default_rng

from ssnnls.core import (SUPPORT_MIN_ENTRIES, SUPPORT_SHARE, GroupedDictionary, SparsityConfig,
                         eval_objective_p1, eval_objective_p2, support_matvec)
from ssnnls.errors import ConfigError, NonConvergenceError
from ssnnls import core, sgp
from ssnnls import qp
from ssnnls.qp import model_value
from ssnnls.sgp import (TERM_ENERGY, TERM_MAX_OUTER, TERM_STEP, SgpParams, solve_problem1,
                        solve_problem2)

from oracles import (Model, check_descent_estimate, dense_objective_p1, dense_objective_p2,
                     fd_gradient, quad_value)


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


def assert_p1_feasible(dct, cfg, x, d, tol=1e-7):
    assert x.min() >= -tol
    assert d.min() >= -tol
    for j in range(dct.n_groups):
        sl = dct.group_slice(j)
        assert np.sum(x[sl]) + d[j] >= cfg.eps[j] - tol
    assert np.sum(d / cfg.eps) <= cfg.budget(dct.n_groups) + tol


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_problem2_trace_monotone_and_stationary(seed):
    dct, b, cfg = make_problem(seed)
    report = solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-12))
    trace = np.asarray(report.objective_trace)
    assert trace.size == report.outer_iters + 1
    assert np.all(np.diff(trace) <= 1e-12)
    assert report.termination in (TERM_STEP, TERM_ENERGY)
    x = report.x
    assert x.min() >= -1e-12
    grad = dense_objective_p2(dct, b, cfg, x)[2]
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
    assert report.d is not None
    assert_p1_feasible(dct, cfg, report.x, report.d)
    assert all(c > 0 for c in report.c_trace)


@pytest.mark.parametrize("rows, size, seed, appends_per_delete",
                         [(32, 200, 2, 0), (32, 200, 0, qp._APPENDS_PER_DELETE), (64, 550, 3, 0)])
def test_problem1_converges_on_rank_deficient_blocks_with_deletes(monkeypatch, rows, size, seed,
                                                                   appends_per_delete):
    # past `rows` free columns the blocks are definite only by the shift,
    # and keep() drops by deletes (every drop at 0), so W drifts from the
    # block's factor; the active set must still converge
    monkeypatch.setattr(qp, "_APPENDS_PER_DELETE", appends_per_delete)
    dct, b, cfg = make_problem(seed, n_rows=rows, sizes=(size, size), noise=0.0)
    cfg.gamma[:] = 1.0
    report = solve_problem1(dct, b, cfg, SgpParams())
    assert report.termination in (TERM_STEP, TERM_ENERGY)
    assert_p1_feasible(dct, cfg, report.x, report.d)


def test_problem2_zero_weights_matches_nnls():
    from scipy.optimize import nnls

    dct, b, _ = make_problem(11)
    cfg = SparsityConfig(gamma=np.zeros(3), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    report = solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-14, max_outer=300))
    x_ref = nnls(dct.entries, b)[0]
    assert report.x == pytest.approx(x_ref, abs=2e-6)


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


def _block_problem(wide):
    """A dictionary and a (rows, 6) block of its data, the last column far outside its range.

    The last column's objective is so large that its first step's
    decrease already meets the relative energy test.
    """
    if wide:
        dct, _, cfg = make_problem(3, n_rows=120, sizes=(25, 25, 25, 25))
    else:
        dct, _, cfg = make_problem(0)
    rng = default_rng(41)
    truth = np.where(rng.uniform(size=(dct.n_columns, 6)) < 0.15,
                     rng.uniform(0.5, 1.5, size=(dct.n_columns, 6)), 0.0)
    block = dct.entries @ truth + 0.1 * rng.normal(size=(dct.n_rows, 6))
    q, _ = np.linalg.qr(dct.entries, mode="complete")
    block[:, -1] += 1e4 * q[:, -1]
    return dct, block, cfg


@pytest.mark.parametrize("wide", [False, True])
def test_problem2_block_equals_its_single_solves(monkeypatch, wide):
    # each column keeps its own steps and stop; the wide dictionary's block
    # residual comes from the union of the columns' supports
    monkeypatch.setattr(core, "SUPPORT_MIN_ENTRIES", 0)
    dct, block, cfg = _block_problem(wide)
    params = SgpParams(tol_energy=1e-4)
    rep = solve_problem2(dct, block, cfg, params)
    singles = [solve_problem2(dct, block[:, p], cfg, params) for p in range(block.shape[1])]
    # every stop is decided far above rounding, where the block's products
    # (A'B and the residual) may part from a single solve's
    for one in singles:
        trace = np.asarray(one.objective_trace)
        assert abs(trace[-2] - trace[-1]) >= 1e-12 * abs(trace[-1])
    assert rep.x.shape == (dct.n_columns, block.shape[1]) and rep.failed == []
    assert [col.outer_iters for col in rep.columns] == [one.outer_iters for one in singles]
    assert [col.termination for col in rep.columns] == [one.termination for one in singles]
    assert [col.inner_iters_total for col in rep.columns] == \
        [one.inner_iters_total for one in singles]
    assert rep.outer_iters == sum(one.outer_iters for one in singles)
    assert rep.inner_iters_total == sum(one.inner_iters_total for one in singles)
    for p, one in enumerate(singles):
        assert np.max(np.abs(rep.x[:, p] - one.x)) <= 1e-12 * np.max(np.abs(one.x))
        assert np.array_equal(rep.columns[p].x, rep.x[:, p])
        assert rep.columns[p].objective_trace == pytest.approx(one.objective_trace, rel=1e-12)
    assert singles[-1].outer_iters == 1 and singles[-1].termination == TERM_ENERGY
    assert min(one.outer_iters for one in singles[:-1]) >= 2


def test_problem2_block_rejects_data_of_the_wrong_rows_or_not_finite():
    dct, block, cfg = _block_problem(False)
    with pytest.raises(ValueError, match="rows"):
        solve_problem2(dct, block[:-1], cfg)
    block[3, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_problem2(dct, block, cfg)


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

    def fake_solve(gram, diag, q, start):
        calls.append(q)
        return np.full(q.size, 10.0), 0

    monkeypatch.setattr(sgp, "solve_qp_p2", fake_solve)
    report = solve_problem2(dct, b, cfg, SgpParams())
    assert report.termination == TERM_ENERGY
    assert report.outer_iters == 0
    assert len(calls) == 1


def test_problem1_model_no_better_than_the_anchor_ends_as_energy_tol(monkeypatch):
    # a model minimiser with a positive model value is not re-solved
    dct, b, cfg = make_problem(5)
    calls = []

    def fake_solve(gram, diag, q, offsets, eps, q_d, budget):
        calls.append(q)
        return np.full(q.size, 10.0), np.full(q_d.size, 10.0), 0

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

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sgp, f"solve_qp_{problem}", counting)
    solve = solve_problem1 if problem == "p1" else solve_problem2
    with pytest.raises(NonConvergenceError, match="did not converge in 0 iterations"):
        solve(dct, b, cfg, SgpParams())
    assert len(calls) == 1


def test_problem2_rejects_bad_init_shape():
    dct, b, cfg = make_problem(5)
    with pytest.raises(ValueError):
        solve_problem2(dct, b, cfg, x0=np.ones(3))


def test_problem2_singular_model_is_a_value_error():
    # more columns than rows and no shift: G + 2C cannot be factored
    rng = default_rng(3)
    dct = GroupedDictionary(rng.normal(size=(5, 8)), np.array([0, 3, 6, 8]))
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    with pytest.raises(ValueError, match="c_matrix_scale"):
        solve_problem2(dct, rng.normal(size=5), cfg, SgpParams(c_matrix_scale=0.0))


def test_problem1_zero_shift_is_a_value_error_before_any_evaluation(monkeypatch):
    # the dummies' only curvature is the shift: checked once, up front
    dct, b, cfg = make_problem(5)
    real, calls = sgp.eval_objective_p1, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sgp, "eval_objective_p1", counting)
    with pytest.raises(ValueError, match="c_matrix_scale"):
        solve_problem1(dct, b, cfg, SgpParams(c_matrix_scale=0.0))
    assert calls == []


@pytest.mark.parametrize("field, value", [
    ("max_outer", 0), ("max_outer", -3), ("max_outer", 2.5), ("tol_energy", -1.0),
    ("tol_energy", np.inf),
    ("tol_energy", np.nan), ("c_matrix_scale", -1e-9), ("c_matrix_scale", np.inf),
])
def test_sgp_params_reject_bad_settings(field, value):
    with pytest.raises(ConfigError, match=field):
        SgpParams(**{field: value})


def test_problem2_trace_bookkeeping(monkeypatch):
    dct, b, cfg = make_problem(7)
    real = sgp.solve_qp_p2
    steps = []

    def counting(*args):
        z, iters = real(*args)
        steps.append(iters)
        return z, iters

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

    def counting(*args):
        x, d, iters = real(*args)
        steps.append(iters)
        return x, d, iters

    monkeypatch.setattr(sgp, "solve_qp_p1", counting)
    report = solve_problem1(dct, b, cfg, SgpParams())
    assert len(report.step_trace) == report.outer_iters
    assert len(report.c_trace) == report.outer_iters
    assert len(steps) > report.outer_iters + 1 and min(steps) >= 1
    assert report.inner_iters_total == sum(steps)


def test_problem1_repairs_infeasible_init():
    dct, b, cfg = make_problem(9)
    x0 = np.zeros(dct.n_columns)  # violates every floor, no dummies
    report = solve_problem1(dct, b, cfg, SgpParams(max_outer=3, tol_energy=0.0), x0=x0)
    assert_p1_feasible(dct, cfg, report.x, report.d)
    assert np.isfinite(report.objective_trace).all()


def test_problem1_init_scales_an_over_budget_d_onto_the_budget():
    dct, b, cfg = make_problem(9)
    x0 = np.zeros(dct.n_columns)
    x0[0] = 0.2  # group 0 meets its floor alone; groups 1 and 2 are short
    d0 = np.array([2.0, 1.0, 3.0]) * cfg.eps  # sum(d / eps) = 6 against a budget of 2
    x, d = sgp._feasible_p1_init(dct, cfg, x0, d0)
    assert_p1_feasible(dct, cfg, x, d, tol=1e-12)
    assert d == pytest.approx(d0 / 3.0, rel=1e-12)
    assert x[:3] == pytest.approx([0.2, 0.0, 0.0])
    for j in (1, 2):
        seg = x[dct.group_slice(j)]
        assert seg == pytest.approx(np.full(seg.size, cfg.eps[j] / seg.size), rel=1e-12)
    report = solve_problem1(dct, b, cfg, SgpParams(max_outer=3, tol_energy=0.0), x0=x0, d0=d0)
    assert_p1_feasible(dct, cfg, report.x, report.d)


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
    assert np.array_equal(runs[0].x, runs[1].x)
    assert runs[0].objective_trace == runs[1].objective_trace
    assert fresh.x == pytest.approx(runs[0].x, abs=1e-9)


def test_descent_estimate_brackets_objective_change():
    dct, b, cfg = make_problem(21)
    rng = default_rng(21)
    n = dct.n_columns
    at = rng.uniform(0.1, 1.0, size=n)
    to = np.maximum(at + 0.05 * rng.normal(size=n), 0.0)
    assert check_descent_estimate(dct, b, cfg, at, to, 0.0, 1e6, problem="p2")
    assert not check_descent_estimate(dct, b, cfg, at, to, 0.0, -1e6, problem="p2")

    m = dct.n_groups
    at_d = rng.uniform(0.1, 0.5, size=m)
    to_d = at_d + 0.02 * rng.normal(size=m)
    assert check_descent_estimate(dct, b, cfg, at, to, 0.0, 1e6, problem="p1",
                                  at_d=at_d, to_d=to_d)
    with pytest.raises(ValueError):
        check_descent_estimate(dct, b, cfg, at, to, 0.0, 1.0, problem="p3")


def test_descent_estimate_exact_for_quadratic_part():
    # with zero penalty weights the objective is quadratic, so the bound
    # with lambda_r = lambda_big = 0 holds with equality
    dct, b, _ = make_problem(23)
    cfg = SparsityConfig(gamma=np.zeros(3), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    rng = default_rng(23)
    at = rng.uniform(0.1, 1.0, size=dct.n_columns)
    to = rng.uniform(0.1, 1.0, size=dct.n_columns)
    assert check_descent_estimate(dct, b, cfg, at, to, 0.0, 0.0, problem="p2")


def test_objective_gradients_match_fd_on_random_points():
    dct, b, cfg = make_problem(29)
    rng = default_rng(29)
    n = dct.n_columns
    x = rng.uniform(0.2, 1.0, size=n)
    ev = eval_objective_p2(dct, b, x, cfg)
    fd = fd_gradient(lambda z: eval_objective_p2(dct, b, z, cfg).value, x)
    assert dct.entries.T @ ev.resid + ev.penalty_grad == pytest.approx(fd, rel=1e-6, abs=1e-8)

    d = rng.uniform(0.1, 0.4, size=dct.n_groups)
    ev1 = eval_objective_p1(dct, b, x, d, cfg)
    fdx = fd_gradient(lambda z: eval_objective_p1(dct, b, z, d, cfg).value, x)
    fdd = fd_gradient(lambda z: eval_objective_p1(dct, b, x, z, cfg).value, d)
    grad = dct.entries.T @ ev1.resid + ev1.penalty_grad
    assert grad == pytest.approx(fdx, rel=1e-6, abs=1e-8)
    assert ev1.grad_d == pytest.approx(fdd, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("sizes", [(3, 3, 2), (25, 25, 25, 25)])
@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_objective_trace_matches_dense_evaluation_of_its_iterates(monkeypatch, seed, sizes,
                                                                 problem):
    # the loops evaluate on the iterate's support with A'b formed once;
    # every value they see, and so every traced one, is the dense objective
    # (problem 2 evaluates a block, one row per data vector: here one row)
    monkeypatch.setattr(core, "SUPPORT_MIN_ENTRIES", 0)
    dct, b, cfg = make_problem(seed, n_rows=60, sizes=sizes)
    name = f"eval_objective_{problem}"
    evaluate = getattr(sgp, name)
    seen = []

    def recording(*args, **kwargs):
        ev = evaluate(*args, **kwargs)
        seen.append((tuple(np.atleast_2d(a)[0].copy() for a in args[2:-1]),
                     float(np.ravel(ev.value)[0])))
        return ev

    monkeypatch.setattr(sgp, name, recording)
    solve = solve_problem1 if problem == "p1" else solve_problem2
    report = solve(dct, b, cfg, SgpParams(tol_energy=1e-12))
    dense = dense_objective_p1 if problem == "p1" else dense_objective_p2
    for point, value in seen:
        fit, penalty = dense(dct, b, cfg, *point)[:2]
        assert value == pytest.approx(fit + penalty, rel=1e-12)
    assert set(report.objective_trace) <= {value for _, value in seen}
    if len(sizes) == 4:
        # the wide problems reach iterates on which the support path runs
        assert any(np.count_nonzero(p[0]) <= SUPPORT_SHARE * dct.n_columns for p, _ in seen)


# each case: the problem, the argument it names, and the start given to its solve
BAD_INITS = {
    "p2 nan x": ("p2", "x0", lambda n, m: dict(x0=np.where(np.arange(n) == 2, np.nan, 0.1))),
    "p2 inf x": ("p2", "x0", lambda n, m: dict(x0=np.where(np.arange(n) == 2, np.inf, 0.1))),
    "p1 nan x": ("p1", "x0", lambda n, m: dict(x0=np.where(np.arange(n) == 2, np.nan, 0.1))),
    "p1 inf x": ("p1", "x0", lambda n, m: dict(x0=np.where(np.arange(n) == 2, -np.inf, 0.1))),
    "p1 nan dummy": ("p1", "d0", lambda n, m: dict(x0=np.full(n, 0.1),
                                                   d0=np.array([0.0, np.nan, 0.0][:m]))),
    "p1 short d": ("p1", "d0", lambda n, m: dict(x0=np.full(n, 0.1), d0=np.zeros(m - 1))),
    "p1 short x": ("p1", "x0", lambda n, m: dict(x0=np.full(n - 1, 0.1), d0=np.zeros(m))),
}


@pytest.mark.parametrize("case", sorted(BAD_INITS))
def test_bad_init_is_a_value_error_naming_init_before_any_evaluation(monkeypatch, case):
    problem, name, make = BAD_INITS[case]
    dct, b, cfg = make_problem(5)
    calls = []
    monkeypatch.setattr(sgp, f"eval_objective_{problem}", lambda *a, **k: calls.append(a))
    solve = solve_problem1 if problem == "p1" else solve_problem2
    with pytest.raises(ValueError, match=name):
        solve(dct, b, cfg, SgpParams(), **make(dct.n_columns, dct.n_groups))
    assert calls == []


def _recorded_models(monkeypatch, problem, dct, b, cfg):
    """Run one solve; return every model its loop handed over, with its minimiser.

    Problem 1's models are read from its value check, which takes the
    model, its anchor and the minimiser; problem 2's anchor is the point
    the loop evaluated last before the solve, the one row of its block.
    """
    solves, evaluated, values = [], [], []
    solve_name, eval_name = f"solve_qp_{problem}", f"eval_objective_{problem}"
    real_solve, real_eval = getattr(sgp, solve_name), getattr(sgp, eval_name)

    def solving(*args):
        out = real_solve(*args)
        solves.append((args, out))
        return out

    def evaluating(*args, **kwargs):
        evaluated.append(np.atleast_2d(args[2])[0].copy())
        return real_eval(*args, **kwargs)

    def valuing(*args):
        values.append(args)
        return model_value(*args)

    monkeypatch.setattr(sgp, solve_name, solving)
    monkeypatch.setattr(sgp, eval_name, evaluating)
    monkeypatch.setattr(sgp, "model_value", valuing)
    solve = solve_problem1 if problem == "p1" else solve_problem2
    solve(dct, b, cfg, SgpParams(tol_energy=1e-12))
    models = []
    for k, (args, out) in enumerate(solves):
        if problem == "p1":
            gram, shift, q, q_d, anchor, anchor_d, x, d = values[k]
            assert args[1] == 2.0 * shift and args[2] is q and args[5] is q_d
            assert x is out[0] and d is out[1]
        else:
            gram, diag, q, start = args
            shift, anchor, x, q_d, anchor_d, d = diag / 2.0, evaluated[k], out[0], None, None, None
            assert np.array_equal(start, anchor > 0.0)
        assert gram is dct.gram
        models.append(SimpleNamespace(shift=shift, q=q, q_d=q_d, anchor=anchor,
                                      anchor_d=anchor_d, x=x, d=d))
    return models


def _rel_gap(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("intra_only", [False, True])
@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_models_are_handed_over_in_standard_form(monkeypatch, problem, intra_only):
    # q = (G + 2C) a - grad F(a) and q_d = 2c a_d - grad_d F(a), against
    # the dense gradient; problem 1's model value against its gradient
    # form, with and without the inter-group weight
    monkeypatch.setattr(core, "SUPPORT_MIN_ENTRIES", 0)
    dct, b, cfg = make_problem(3, n_rows=60, sizes=(25, 25, 25, 25))
    if intra_only:
        cfg.gamma0 = 0.0
    seen = _recorded_models(monkeypatch, problem, dct, b, cfg)
    assert len(seen) >= 3
    for mod in seen:
        a, h_a = mod.anchor, dct.gram @ mod.anchor + 2.0 * mod.shift * mod.anchor
        if problem == "p1":
            _, _, grad, grad_d = dense_objective_p1(dct, b, cfg, a, mod.anchor_d)
            assert _rel_gap(mod.q_d, 2.0 * mod.shift * mod.anchor_d - grad_d) <= 1e-12
            sub = Model(dct.gram, mod.shift, mod.q, a, anchor_d=mod.anchor_d, q_d=mod.q_d)
            ref = quad_value(sub, mod.x, mod.d, lin=grad, lin_d=grad_d)
            value = model_value(dct.gram, mod.shift, mod.q, mod.q_d, a, mod.anchor_d, mod.x,
                                mod.d)
            assert value == pytest.approx(ref, rel=1e-12)
        else:
            grad = dense_objective_p2(dct, b, cfg, a)[2]
        assert _rel_gap(mod.q, h_a - grad) <= 1e-12


@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_solves_multiply_the_gram_matrix_only_by_a_model_step(monkeypatch, problem):
    # G a cancels from the models' linear term and the fit's gradient is
    # never formed, so problem 2 never multiplies G and problem 1 only by
    # the step dx = x - a of its value check
    dct, b, cfg = make_problem(3, n_rows=60, sizes=(25, 25, 25, 25))
    products = []

    def recording(mat, x, symmetric=False):
        products.append((mat, x.copy()))
        return support_matvec(mat, x, symmetric)

    monkeypatch.setattr(core, "support_matvec", recording)
    monkeypatch.setattr(qp, "support_matvec", recording)
    seen = _recorded_models(monkeypatch, problem, dct, b, cfg)
    with_gram = [x for mat, x in products if mat is dct.gram]
    assert products and len(seen) >= 3
    if problem == "p2":
        assert with_gram == []
    else:
        steps = [mod.x - mod.anchor for mod in seen]
        assert with_gram and all(any(np.array_equal(x, dx) for dx in steps) for x in with_gram)


@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_solves_from_the_default_start_make_no_dense_product_with_the_dictionary(monkeypatch,
                                                                                 problem):
    # the 0.1 start's residual comes from the kept A 1, so on a dictionary
    # large enough for the support path every product with A is a sparse
    # one, of a later iterate
    dct, b, cfg = make_problem(3, n_rows=64, sizes=(550, 550), noise=0.0)
    cfg.gamma[:] = 1.0
    assert dct.entries.size >= SUPPORT_MIN_ENTRIES
    products, evaluated = [], []

    def recording(mat, x, symmetric=False):
        products.append((mat, x.copy()))
        return support_matvec(mat, x, symmetric)

    real_eval = getattr(sgp, f"eval_objective_{problem}")

    def evaluating(*args, **kwargs):
        # problem 2 evaluates a block, one row per data vector: here one row
        evaluated.append(np.atleast_2d(args[2])[0].copy())
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(core, "support_matvec", recording)
    monkeypatch.setattr(sgp, f"eval_objective_{problem}", evaluating)
    solve = solve_problem1 if problem == "p1" else solve_problem2
    solve(dct, b, cfg, SgpParams())
    with_a = [np.atleast_2d(x)[0] for mat, x in products if mat is dct.entries]
    assert np.array_equal(evaluated[0], np.full(dct.n_columns, 0.1))
    assert with_a and all(np.array_equal(x, y) for x, y in zip(with_a, evaluated[1:], strict=True))
    assert all(np.count_nonzero(x) <= SUPPORT_SHARE * x.size for x in with_a)
