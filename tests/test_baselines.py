"""Comparison solvers: NNLS wrapper, l1 variants, l0 penalty decomposition."""

import numpy as np
import pytest
from numpy.random import default_rng

import oracles
from ssnnls import baselines
from ssnnls.baselines import PdParams, l1_bregman, l1_penalized, nnls, penalty_decomposition_l0
from ssnnls.core import L1_SHIFT, GroupedDictionary, SparsityConfig
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


def test_l1_penalized_edge_cases():
    zero = one_group(np.zeros((4, 3)))
    assert l1_penalized(zero, np.ones(4), 0.1) == pytest.approx(np.zeros(3))
    assert zero.l1_factor is None
    with pytest.raises(ValueError):
        l1_penalized(one_group(np.eye(2)), np.ones(2), -0.1)


def test_l1_factor_is_kept_beside_the_gram_matrix():
    a = default_rng(5).normal(size=(10, 6))
    dct = one_group(a)
    r = dct.l1_factor
    assert r is dct.l1_factor and not r.flags.writeable
    assert np.allclose(np.tril(r, -1), 0.0)
    ridge = L1_SHIFT * np.trace(dct.gram) / 6
    assert r.T @ r == pytest.approx(dct.gram + ridge * np.eye(6), rel=1e-12, abs=1e-12)


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


def test_l1_bregman_unreachable_tau_fails_after_one_solve(monkeypatch):
    calls = []
    real_nnls = baselines.nnls

    def counting_nnls(*args):
        calls.append(1)
        return real_nnls(*args)

    monkeypatch.setattr(baselines, "nnls", counting_nnls)
    with pytest.raises(NonConvergenceError) as info:
        l1_bregman(one_group(np.eye(2)), np.array([-1.0, -1.0]), tau=0.5)
    assert len(calls) == 1
    message = str(info.value)
    assert "1.414214e+00" in message and "5.000000e-01" in message


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


# ---------------------------------------------------------------- penalty decomposition


def test_pd_params_validation():
    with pytest.raises(ConfigError):
        PdParams(rho0=0.0)
    with pytest.raises(ConfigError):
        PdParams(growth=1.0)
    with pytest.raises(ConfigError):
        PdParams(tol_outer=0.0)


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
    with pytest.raises(ValueError):
        penalty_decomposition_l0(dct, np.zeros(4), group_cfg(2), init=np.ones(3))
