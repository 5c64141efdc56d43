"""Comparison solvers: NNLS wrapper, l1 variants, l0 penalty decomposition."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from numpy.random import default_rng

import oracles
import ssnnls
from ssnnls import baselines, qp
from ssnnls.baselines import PdParams, l1_bregman, l1_penalized, nnls, penalty_decomposition_l0
from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.errors import ConfigError, NonConvergenceError


def one_group(a):
    """``a`` as a dictionary of one group, the form the l1 baselines take."""
    return GroupedDictionary(a, [0, np.shape(a)[1]])


def group_cfg(n_groups):
    return SparsityConfig(gamma=np.zeros(n_groups), gamma0=0.0,
                          eps=np.full(n_groups, 0.01), r=0.0)


# ---------------------------------------------------------------- nnls


def test_nnls_identity_example():
    assert nnls(np.eye(2), np.array([1.0, -1.0])) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_nnls_recovers_consistent_system():
    rng = default_rng(0)
    a = rng.normal(size=(12, 5))
    x_true = np.abs(rng.normal(size=5))
    assert nnls(a, a @ x_true) == pytest.approx(x_true, abs=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nnls_kkt_residuals(seed):
    rng = default_rng(seed)
    a = rng.normal(size=(15, 7))
    b = rng.normal(size=15)
    x = nnls(a, b)
    grad = a.T @ (a @ x - b)
    active = x > 0
    assert np.all(np.abs(grad[active]) <= 1e-8)
    assert np.all(grad[~active] >= -1e-8)
    assert np.max(np.abs(x * grad)) <= 1e-8


def test_nnls_beats_random_feasible_points():
    rng = default_rng(42)
    for _ in range(100):
        a = rng.normal(size=(20, 8))
        b = rng.normal(size=20)
        x = nnls(a, b)
        best = 0.5 * float(np.sum((a @ x - b) ** 2))
        pts = np.abs(rng.normal(size=(1000, 8)))
        objs = 0.5 * np.sum((pts @ a.T - b) ** 2, axis=1)
        assert best <= objs.min() + 1e-12


def test_nnls_shape_mismatch():
    with pytest.raises(ValueError):
        nnls(np.eye(3), np.ones(4))


def test_pipelines_import_without_scipy_optimize():
    # scipy.optimize is loaded by the first nnls call, not by an import
    code = "import sys, ssnnls.hsi, ssnnls.doas; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(ssnnls.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_nnls_iteration_cap_is_non_convergence():
    rng = default_rng(0)
    a = rng.normal(size=(30, 20))
    b = rng.normal(size=30)
    with pytest.raises(NonConvergenceError):
        nnls(a, b, maxiter=1)


# ---------------------------------------------------------------- l1 penalized


@pytest.mark.parametrize("seed,gamma", [(0, 0.05), (1, 0.2), (2, 0.5), (3, 0.05)])
def test_l1_penalized_matches_slsqp(seed, gamma):
    rng = default_rng(seed)
    a = rng.normal(size=(10, 6))
    b = rng.normal(size=10)
    x = l1_penalized(one_group(a), b, gamma)
    x_ref = oracles.slsqp_nonneg_l1(a, b, gamma)

    def obj(z):
        return 0.5 * float(np.sum((a @ z - b) ** 2)) + gamma * float(np.sum(z))

    assert x.min() >= 0.0
    assert obj(x) <= obj(x_ref) + 1e-7
    assert x == pytest.approx(x_ref, abs=5e-4)


@pytest.mark.parametrize("b", [[1.0, 1.0], [3.0, 1.0, 1.0]])
def test_l1_forms_enter_tied_columns_together(b):
    # on A = I the path is x = max(b - gamma, 0): the columns whose entries
    # of b tie enter at one breakpoint, at the start or further down
    b = np.array(b)
    a = np.eye(b.size)
    x = l1_penalized(one_group(a), b, 0.5)
    assert x == pytest.approx(b - 0.5, abs=1e-9)
    assert x == pytest.approx(oracles.slsqp_nonneg_l1(a, b, 0.5), abs=5e-4)
    tau = 0.5
    x = l1_bregman(one_group(a), b, tau)
    assert x == pytest.approx(b - tau / np.sqrt(b.size), abs=1e-9)
    ref = oracles.slsqp_min_l1_ball(a, b, tau)
    assert np.linalg.norm(a @ x - b) <= tau * (1.0 + 1e-3)
    assert np.sum(x) <= np.sum(ref) * 1.01 + 1e-9


def test_l1_penalized_edge_cases():
    zero = one_group(np.zeros((4, 3)))
    assert l1_penalized(zero, np.ones(4), 0.1) == pytest.approx(np.zeros(3))
    with pytest.raises(ValueError):
        l1_penalized(one_group(np.eye(2)), np.ones(2), -0.1)


# ---------------------------------------------------------------- l1 bregman


def test_l1_bregman_scalar_example():
    x = l1_bregman(one_group(np.eye(2)), np.array([2.0, 0.0]), tau=1.0)
    assert x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_l1_bregman_zero_inside_ball():
    b = np.array([0.3, -0.4])
    assert l1_bregman(one_group(np.eye(2)), b, tau=0.5) == pytest.approx(np.zeros(2))
    assert l1_bregman(one_group(np.eye(2)), b, tau=2.0) == pytest.approx(np.zeros(2))


def test_l1_bregman_rejects_bad_tau():
    with pytest.raises(ValueError):
        l1_bregman(one_group(np.eye(2)), np.ones(2), tau=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_l1_bregman_matches_min_l1_oracle(seed):
    rng = default_rng(seed)
    a = rng.normal(size=(9, 6))
    x_true = np.zeros(6)
    x_true[rng.choice(6, size=2, replace=False)] = rng.uniform(0.5, 2.0, size=2)
    b = a @ x_true
    tau = 0.4 * float(np.linalg.norm(b))
    x = l1_bregman(one_group(a), b, tau)
    assert x.min() >= 0.0
    assert np.linalg.norm(a @ x - b) <= tau * (1.0 + 1e-3)
    ref = oracles.slsqp_min_l1_ball(a, b, tau)
    assert np.sum(x) <= np.sum(ref) * 1.01 + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_l1_bregman_returns_a_point_on_the_tau_sphere(seed):
    rng = default_rng(seed)
    a = rng.normal(size=(10, 6))
    b = a @ np.abs(rng.normal(size=6)) + 0.1 * rng.normal(size=10)
    tau = 0.3 * float(np.linalg.norm(b))
    x = l1_bregman(one_group(a), b, tau)
    assert x.min() >= 0.0
    assert np.linalg.norm(a @ x - b) == pytest.approx(tau, rel=1e-9)


def test_l1_bregman_unreachable_tau_fails_without_an_nnls_call(monkeypatch):
    def no_nnls(*args, **kwargs):
        raise AssertionError("the l1 path called scipy's NNLS")

    monkeypatch.setattr(scipy.optimize, "nnls", no_nnls)
    # no column correlated with b, then a path walked down to gamma = 0
    for b, shown in (([-1.0, -1.0], "1.414214e+00"), ([2.0, -1.0], "1.000000e+00")):
        with pytest.raises(NonConvergenceError) as info:
            l1_bregman(one_group(np.eye(2)), np.array(b), tau=0.5)
        message = str(info.value)
        assert shown in message and "5.000000e-01" in message


def _capped_problem(monkeypatch):
    rng = default_rng(4)
    a = rng.normal(size=(10, 6))
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    return one_group(a), a @ np.abs(rng.normal(size=6))


def test_l1_penalized_iteration_cap_is_the_active_sets(monkeypatch):
    dct, b = _capped_problem(monkeypatch)
    with pytest.raises(NonConvergenceError, match="active set"):
        l1_penalized(dct, b, 0.01)


def test_l1_bregman_breakpoint_cap_is_non_convergence(monkeypatch):
    dct, b = _capped_problem(monkeypatch)
    with pytest.raises(NonConvergenceError, match="l1 path"):
        l1_bregman(dct, b, 1e-3)


@pytest.mark.parametrize("seed", range(10))
def test_l1_forms_agree_at_the_weight_of_the_constrained_solution(seed):
    # the constrained form walks the path, the penalized form runs problem
    # 2's active set: at the weight read off the path's point, both agree
    rng = default_rng(seed)
    a = rng.normal(size=(30, 60))
    a /= np.linalg.norm(a, axis=0)
    dct = one_group(a)
    b = a @ np.where(rng.random(60) < 0.1, rng.uniform(0.5, 2.0, 60), 0.0) \
        + 0.05 * rng.normal(size=30)
    x = l1_bregman(dct, b, 0.3 * float(np.linalg.norm(b)))
    ridge = baselines.L1_SHIFT * float(np.trace(dct.gram)) / a.shape[1]
    corr = (a.T @ b - dct.gram @ x - ridge * x)[x > 0]
    assert np.ptp(corr) <= 1e-9 * np.max(np.abs(corr))
    x_pen = l1_penalized(dct, b, float(np.mean(corr)))
    assert np.linalg.norm(x_pen - x) <= 1e-9 * np.linalg.norm(x)


def _coherent_dictionary(seed, rows=12, cols=30):
    """Wide dictionary whose columns come in near-duplicate pairs."""
    rng = default_rng(seed)
    base = rng.normal(size=(rows, cols // 2))
    a = np.hstack([base, base + 1e-6 * rng.normal(size=base.shape)])
    return a / np.linalg.norm(a, axis=0), rng


@pytest.mark.parametrize("seed,gamma", [(0, 0.05), (1, 0.2), (2, 0.01)])
def test_l1_penalized_rank_deficient_matches_slsqp(seed, gamma):
    a, rng = _coherent_dictionary(seed)
    b = rng.normal(size=a.shape[0])
    x = l1_penalized(one_group(a), b, gamma)
    x_ref = oracles.slsqp_nonneg_l1(a, b, gamma)

    def obj(z):
        return 0.5 * float(np.sum((a @ z - b) ** 2)) + gamma * float(np.sum(z))

    assert x.min() >= 0.0
    assert obj(x) <= obj(x_ref) + 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_l1_bregman_rank_deficient_matches_min_l1_oracle(seed):
    a, rng = _coherent_dictionary(seed)
    x_true = np.zeros(a.shape[1])
    x_true[rng.choice(a.shape[1], size=3, replace=False)] = rng.uniform(0.5, 2.0, size=3)
    b = a @ x_true + 0.01 * rng.normal(size=a.shape[0])
    tau = 0.3 * float(np.linalg.norm(b))
    x = l1_bregman(one_group(a), b, tau)
    assert x.min() >= 0.0
    assert np.linalg.norm(a @ x - b) == pytest.approx(tau, rel=1e-9)
    ref = oracles.slsqp_min_l1_ball(a, b, tau)
    assert np.sum(x) <= np.sum(ref) * 1.01 + 1e-9


def _twin_dictionary(seed):
    """12 x 18 dictionary of 6 columns, each repeated exactly three times."""
    rng = default_rng(seed)
    a = np.tile(rng.normal(size=(12, 6)), 3)
    return a / np.linalg.norm(a, axis=0), rng


@pytest.mark.parametrize("shift", [baselines.L1_SHIFT, 0.0])
@pytest.mark.parametrize("seed,gamma", [(0, 0.05), (1, 0.2), (6, 0.01)])
def test_l1_forms_on_exactly_twin_columns_match_slsqp(monkeypatch, seed, gamma, shift):
    # with the ridge the twins share their weight; without it only one of
    # each set of twins may enter, the others' entry rates being rounding
    # (at seed 6 some come out positive, and letting them in makes the
    # active block singular)
    monkeypatch.setattr(baselines, "L1_SHIFT", shift)
    a, rng = _twin_dictionary(seed)
    x_true = np.zeros(a.shape[1])
    x_true[[0, 7, 14]] = rng.uniform(0.5, 2.0, size=3)
    b = a @ x_true + 0.01 * rng.normal(size=a.shape[0])

    x = l1_penalized(one_group(a), b, gamma)
    x_ref = oracles.slsqp_nonneg_l1(a, b, gamma)

    def obj(z):
        return 0.5 * float(np.sum((a @ z - b) ** 2)) + gamma * float(np.sum(z))

    assert x.min() >= 0.0
    assert obj(x) <= obj(x_ref) + 1e-7
    if shift:
        # evenly, up to the split the ridge's 1e10 condition number leaves
        assert x.reshape(3, 6) == pytest.approx(np.tile(x[:6], (3, 1)), abs=1e-4)

    tau = 0.3 * float(np.linalg.norm(b))
    x = l1_bregman(one_group(a), b, tau)
    assert x.min() >= 0.0
    assert np.linalg.norm(a @ x - b) == pytest.approx(tau, rel=1e-9)
    ref = oracles.slsqp_min_l1_ball(a, b, tau)
    assert np.sum(x) <= np.sum(ref) * 1.01 + 1e-9


# ---------------------------------------------------------------- penalty decomposition


def test_pd_params_validation():
    with pytest.raises(ConfigError):
        PdParams(rho0=0.0)
    with pytest.raises(ConfigError):
        PdParams(growth=1.0)
    with pytest.raises(ConfigError):
        PdParams(tol_outer=0.0)


@pytest.mark.parametrize("field, value", [
    ("rho0", np.nan), ("rho0", np.inf), ("growth", np.nan), ("growth", np.inf),
    ("tol_outer", np.nan), ("tol_outer", np.inf),
])
def test_pd_params_reject_non_finite_values_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        PdParams(**{field: value})


def test_pd_zero_data_zero_init():
    dct = GroupedDictionary(np.eye(6), np.array([0, 3, 6]))
    out = penalty_decomposition_l0(dct, np.zeros(6), group_cfg(2))
    assert out == pytest.approx(np.zeros(6))


def test_pd_recovers_planted_support_orthonormal():
    rng = default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(20, 8)))
    dct = GroupedDictionary(q, np.array([0, 2, 4, 6, 8]))
    x_true = np.zeros(8)
    for j, local in enumerate((1, 0, 1, 0)):
        x_true[2 * j + local] = rng.uniform(0.5, 1.5)
    b = q @ x_true
    out = penalty_decomposition_l0(dct, b, group_cfg(4), init="nnls")
    assert np.array_equal(out > 1e-8, x_true > 0)
    assert out == pytest.approx(x_true, abs=1e-4)


def test_pd_tie_broken_at_lowest_index():
    col = np.array([1.0, 2.0, 0.5])
    entries = np.column_stack([col, col])
    dct = GroupedDictionary(entries, np.array([0, 2]))
    out = penalty_decomposition_l0(dct, col, group_cfg(1))
    assert out[0] > 0.5
    assert out[1] == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_pd_output_structure_random(seed):
    rng = default_rng(seed)
    sizes = rng.integers(1, 4, size=rng.integers(2, 5))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    a = rng.normal(size=(int(offsets[-1]) + 3, int(offsets[-1])))
    dct = GroupedDictionary(a, offsets)
    b = rng.normal(size=dct.n_rows)
    init = ["zero", "lstsq", rng.normal(size=dct.n_columns)][seed % 3]
    out = penalty_decomposition_l0(dct, b, group_cfg(len(sizes)),
                                   PdParams(rho0=0.1, growth=1.5), init=init)
    assert out.min() >= 0.0
    for j in range(dct.n_groups):
        assert np.count_nonzero(out[dct.group_slice(j)]) <= 1


def test_pd_init_validation():
    dct = GroupedDictionary(np.eye(4), np.array([0, 2, 4]))
    with pytest.raises(ConfigError):
        penalty_decomposition_l0(dct, np.zeros(4), group_cfg(2), init="warm")
    for init in ("NNLS", "leastsquares"):  # start names are matched exactly
        with pytest.raises(ConfigError, match="unknown init"):
            penalty_decomposition_l0(dct, np.zeros(4), group_cfg(2), init=init)
    with pytest.raises(ValueError):
        penalty_decomposition_l0(dct, np.zeros(4), group_cfg(2), init=np.ones(3))
