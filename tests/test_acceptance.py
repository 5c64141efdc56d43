"""End-to-end acceptance checks, one numbered criterion per test.

Every test enforces its numeric tolerance and its wall-clock ceiling, and
prints a ``[criterion N] PASS`` line with the measured figures (visible
with ``pytest -s`` or in captured output).  The three experiment runs are
module-scoped fixtures so the outer-iteration budget check can reuse them.
"""

import time

import numpy as np
import pytest

import oracles
from ssnnls.baselines import PdParams, penalty_decomposition_l0
from ssnnls import cli
from ssnnls.cli import (ExperimentConfig, run_doas_align, run_doas_background,
                        run_hsi_structured)
from ssnnls.core import (GroupedCoeffs, GroupedDictionary, SparsityConfig,
                         eval_objective_p1, eval_objective_p2)
from ssnnls.doas import (build_background_operator, quartic_background, sample_planted_coeffs,
                        synthesize_doas_data)
from ssnnls.qp import solve_qp_p1, solve_qp_p2
from ssnnls.sgp import SgpParams, solve_problem1, solve_problem2

def _verdict(num, elapsed, limit, detail):
    print(f"[criterion {num}] PASS in {elapsed:.2f}s (limit {limit:.0f}s): {detail}")
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s over {limit}s budget"


def _problem(seed, sizes=(3, 3, 2), n_rows=24, noise=0.01):
    """Small random grouped instance with one planted atom per group."""
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    n = int(offsets[-1])
    dct = GroupedDictionary(rng.normal(size=(n_rows, n)), offsets)
    x_true = np.zeros(n)
    for j in range(len(sizes)):
        x_true[int(offsets[j]) + int(rng.integers(sizes[j]))] = rng.uniform(0.5, 2.0)
    b = dct.entries @ x_true + noise * rng.normal(size=n_rows)
    cfg = SparsityConfig(gamma=np.full(len(sizes), 0.05), gamma0=0.02,
                         eps=np.full(len(sizes), 0.05), r=1.0)
    return dct, b, cfg


# ---------------------------------------------------------------------------
# experiment fixtures shared by criteria 5-7 and 9
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def doas_align_run():
    cfg = ExperimentConfig("doas-align", seed=0, scale=4,
                           solvers=["nnls", "pd", "hoyer_p1", "diff_p2"],
                           overrides={"noise_sd": 0.0})
    t0 = time.perf_counter()
    records = run_doas_align(cfg)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def doas_background_run():
    cfg = ExperimentConfig("doas-background", seed=0, scale=1, solvers=["diff_p2"])
    t0 = time.perf_counter()
    records = run_doas_background(cfg)
    return records, time.perf_counter() - t0


def _true_support_background_error(rec):
    """Background error of least squares on the planted columns plus the
    background block, with the run's alpha: what a fit that finds the
    support can reach.  Rebuilds the doas-background data of ``rec``."""
    cfg = ExperimentConfig("doas-background", seed=rec.seed, scale=rec.scale)
    wl, _refs, ddict, seed_plant, seed_noise, _ = cli._doas_protocol(cfg)
    planted, info = sample_planted_coeffs(  # the protocol's full-grid columns
        ddict, seed_plant, group_cols=[179, 240, 220],
        magnitudes=[row["true_magnitude"] for row in rec.metrics["groups"]])
    background = quartic_background(wl)
    data = synthesize_doas_data(ddict, planted, rec.params["noise_sd"], seed_noise,
                                background=background)
    w = wl.size
    picked = ddict.dictionary.entries[:, [int(ddict.dictionary.offsets[g]) + local
                                          for g, local, _ in info]]
    bg_op = np.sqrt(rec.params["alpha"]) * build_background_operator(w).matrix
    design = np.vstack([np.hstack([picked, np.eye(w)]),
                        np.hstack([np.zeros((w - 2, len(info))), bg_op])])
    sol = np.linalg.lstsq(design, np.concatenate([data, np.zeros(w - 2)]), rcond=None)[0]
    return float(np.linalg.norm(sol[len(info):] - background) / np.linalg.norm(background))


@pytest.fixture(scope="module")
def hsi_structured_run():
    cfg = ExperimentConfig("hsi-structured", seed=0, scale=10,
                           solvers=["nnls", "l1", "hoyer_p1", "diff_p2"])
    t0 = time.perf_counter()
    records = run_hsi_structured(cfg)
    return records, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    dct, b, cfg = _problem(11)
    rng = np.random.default_rng(11)
    n, m = dct.n_columns, dct.n_groups
    worst = 0.0

    for _ in range(20):
        x = rng.uniform(0.3, 1.2, n)
        ev = eval_objective_p2(dct, b, x, cfg)
        grad = dct.entries.T @ ev.resid + ev.penalty_grad
        fd = oracles.fd_gradient(
            lambda v: eval_objective_p2(dct, b, v, cfg).value,
            x, step=1e-6)
        worst = max(worst, float(np.max(np.abs(fd - grad)))
                    / max(1.0, float(np.max(np.abs(grad)))))

    def joint_value(z):
        return eval_objective_p1(dct, b, z[:n], z[n:], cfg).value

    for _ in range(20):
        x = rng.uniform(0.3, 1.2, n)
        d = rng.uniform(0.2, 0.8, m)
        ev = eval_objective_p1(dct, b, x, d, cfg)
        grad = np.concatenate([dct.entries.T @ ev.resid + ev.penalty_grad, ev.grad_d])
        fd = oracles.fd_gradient(joint_value, np.concatenate([x, d]), step=1e-6)
        worst = max(worst, float(np.max(np.abs(fd - grad)))
                    / max(1.0, float(np.max(np.abs(grad)))))

    assert worst <= 1e-5
    _verdict(1, time.perf_counter() - t0, 5.0,
             f"max relative gradient error {worst:.2e} over 2x20 interior points")


def test_criterion_3_qp_solvers_match_projected_gradient_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0

    for _ in range(50):
        sub = oracles.random_p2_subproblem(rng)
        x, _ = solve_qp_p2(*sub.p2_args())
        ref = oracles.pg_p2(sub)
        worst = max(worst, float(np.max(np.abs(x - ref))))

    for _ in range(50):
        sub = oracles.random_p1_subproblem(rng)
        x, d, _ = solve_qp_p1(*sub.p1_args())
        ref_x, ref_d = oracles.pg_p1(sub)
        worst = max(worst, float(np.max(np.abs(x - ref_x))), float(np.max(np.abs(d - ref_d))))

    assert worst <= 1e-5
    _verdict(3, time.perf_counter() - t0, 120.0,
             f"max solver-oracle gap {worst:.2e} over 100 instances")


def _feasible_points_p1(rng, dct, cfg, count):
    """Random exactly-feasible (x, d) pairs for the grouped constraint set."""
    n, m = dct.n_columns, dct.n_groups
    eps = np.asarray(cfg.eps, dtype=float)
    budget = cfg.budget(m)
    xs = np.maximum(rng.normal(0.6, 0.5, size=(count, n)), 0.0)
    shares = rng.uniform(0.0, 1.0, size=(count, m))
    shares /= np.maximum(shares.sum(axis=1, keepdims=True), 1e-300)
    ds = shares * eps * (budget * rng.uniform(0.0, 0.99, size=(count, 1)))
    for j in range(m):
        sl = dct.group_slice(j)
        deficit = eps[j] - xs[:, sl].sum(axis=1) - ds[:, j]
        short = deficit > 0.0
        xs[short, sl.start] += deficit[short] + 1e-12
    return xs, ds


def test_criterion_4_monotone_descent_and_sampled_stationarity():
    t0 = time.perf_counter()
    worst_step = -np.inf
    worst_stat = np.inf

    for seed in range(20):
        dct, b, cfg = _problem(100 + seed)
        rng = np.random.default_rng(500 + seed)
        report = solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-12))
        trace = np.asarray(report.objective_trace)
        worst_step = max(worst_step, float(np.max(np.diff(trace))))
        assert np.all(np.diff(trace) <= 1e-12)
        x = report.final.x
        grad = oracles.dense_objective_p2(dct, b, cfg, x)[2]
        ys = rng.uniform(0.0, 1.5, size=(1000, x.size))
        diffs = ys - x
        slack = diffs @ grad + 1e-4 * np.linalg.norm(diffs, axis=1)
        worst_stat = min(worst_stat, float(np.min(slack)))
        assert np.all(slack >= 0.0)

    for seed in range(20):
        dct, b, cfg = _problem(200 + seed)
        rng = np.random.default_rng(700 + seed)
        report = solve_problem1(dct, b, cfg, SgpParams(tol_energy=1e-12))
        trace = np.asarray(report.objective_trace)
        worst_step = max(worst_step, float(np.max(np.diff(trace))))
        assert np.all(np.diff(trace) <= 1e-12)
        z = np.concatenate([report.final.x, report.final.d])
        grad = np.concatenate(oracles.dense_objective_p1(dct, b, cfg, report.final.x,
                                                         report.final.d)[2:])
        xs, ds = _feasible_points_p1(rng, dct, cfg, 1000)
        diffs = np.hstack([xs, ds]) - z
        slack = diffs @ grad + 1e-4 * np.linalg.norm(diffs, axis=1)
        worst_stat = min(worst_stat, float(np.min(slack)))
        assert np.all(slack >= 0.0)

    _verdict(4, time.perf_counter() - t0, 120.0,
             f"max trace increase {worst_step:.2e}, min stationarity slack "
             f"{worst_stat:.2e} over 2x20 problems x 1000 directions")


def test_criterion_5_doas_desk_support_recovery(doas_align_run):
    records, elapsed = doas_align_run
    by_solver = {r.solver: r.metrics for r in records}
    n_groups = len(by_solver["nnls"]["groups"])
    assert n_groups == 3
    for solver in ("pd", "hoyer_p1", "diff_p2"):
        assert by_solver[solver]["support_hits"] == n_groups, \
            f"{solver} missed a planted atom: {by_solver[solver]['groups']}"
    assert by_solver["nnls"]["nnz"] > 3
    _verdict(5, elapsed, 60.0,
             f"pd/hoyer_p1/diff_p2 hit 3/3 groups, nnls spread over "
             f"{by_solver['nnls']['nnz']} nonzeros")


def test_criterion_6_doas_background_recovery(doas_background_run):
    records, elapsed = doas_background_run
    rec = next(r for r in records if r.solver == "diff_p2")
    hono = next(row for row in rec.metrics["groups"] if row["name"] == "HONO")
    rel_err = abs(hono["magnitude"] - 0.01206) / 0.01206
    assert rel_err <= 0.05
    assert hono["hit"], f"HONO displacement off the planted grid point: {hono}"

    op = build_background_operator(1024)
    i = np.arange(1024, dtype=float)
    assert np.all(op.apply(3.0 + 0.5 * i) == 0.0)

    # the background must separate about as well as with the true support
    oracle_err = _true_support_background_error(rec)
    bg_err = rec.metrics["background_rel_err"]
    assert bg_err <= 2.0 * oracle_err, \
        f"background error {bg_err:.3f} over twice the true-support {oracle_err:.3f}"

    _verdict(6, elapsed, 180.0,
             f"HONO coefficient {hono['magnitude']:.5f} ({100 * rel_err:.2f}% off "
             f"planted 0.01206), displacement exact, linear background annihilated, "
             f"background error {bg_err:.3f} (true support {oracle_err:.3f})")


def test_criterion_7_hsi_structured_sparsity_pattern(hsi_structured_run):
    records, elapsed = hsi_structured_run
    m = {r.solver: r.metrics for r in records}

    assert m["hoyer_p1"]["group_one_sparse_fraction"] == 1.0
    assert m["diff_p2"]["group_one_sparse_fraction"] == 1.0
    assert m["l1"]["group_one_sparse_fraction"] < 1.0

    fnz = {s: m[s]["fraction_nonzero"] for s in ("nnls", "l1", "hoyer_p1", "diff_p2")}
    sparse = [fnz["l1"], fnz["hoyer_p1"], fnz["diff_p2"]]
    assert all(fnz["nnls"] > f for f in sparse)
    # the three sparse models sit in one cluster well under the dense NNLS level
    assert max(sparse) <= 3.0 * min(sparse)

    assert m["l1"]["fit_sse"] > m["diff_p2"]["fit_sse"]
    assert all(m[s]["failed_pixels"] == 0 for s in m)

    _verdict(7, elapsed, 300.0,
             "group 1-sparsity 100% for hoyer_p1/diff_p2, "
             f"{100 * m['l1']['group_one_sparse_fraction']:.0f}% for l1; "
             f"fraction nonzero nnls {fnz['nnls']:.3f} > l1 {fnz['l1']:.3f} "
             f"~ hoyer_p1 {fnz['hoyer_p1']:.3f} ~ diff_p2 {fnz['diff_p2']:.3f}; "
             f"l1 sse {m['l1']['fit_sse']:.1f} > diff_p2 {m['diff_p2']['fit_sse']:.1f}")


def test_criterion_8_penalty_decomposition_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    inits = ("zero", "lstsq", "nnls")
    for i in range(100):
        m = int(rng.integers(1, 5))
        sizes = rng.integers(1, 5, m)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        n = int(offsets[-1])
        dct = GroupedDictionary(rng.normal(size=(n + 2, n)), offsets)
        b = rng.normal(size=n + 2)
        cfg = SparsityConfig(gamma=np.zeros(m), gamma0=0.0,
                             eps=np.full(m, 0.01), r=0.0)
        out = penalty_decomposition_l0(
            dct, b, cfg, init=inits[i % 3],
            params=PdParams(rho0=float(rng.uniform(0.01, 0.5)),
                            growth=float(rng.uniform(1.1, 2.0))))
        assert np.all(out.x >= 0.0)
        for j in range(m):
            assert int(np.count_nonzero(out.x[dct.group_slice(j)])) <= 1
    _verdict(8, time.perf_counter() - t0, 30.0,
             "group-wise <=1-sparse nonnegative output on 100 random instances")


def test_criterion_9_outer_iteration_budget(doas_align_run, doas_background_run,
                                            hsi_structured_run):
    observed = {}
    for rec in doas_align_run[0] + doas_background_run[0]:
        if rec.solver in ("hoyer_p1", "diff_p2"):
            observed[f"{rec.experiment}/{rec.solver}"] = rec.outer_iters
    for rec in hsi_structured_run[0]:
        if rec.solver in ("hoyer_p1", "diff_p2"):
            observed[f"{rec.experiment}/{rec.solver}"] = rec.metrics["outer_iters_max"]
    assert observed
    for name, iters in observed.items():
        assert iters is not None and 4 <= iters <= 40, \
            f"{name} used {iters} outer iterations, outside the 4-40 band"
    summary = ", ".join(f"{k}={v}" for k, v in sorted(observed.items()))
    _verdict(9, 0.0, 1.0, f"outer iterations within [4, 40]: {summary}")
