import numpy as np
import pytest

import time

from ssnnls.baselines import l1_bregman, l1_penalized, penalty_decomposition_l0
from ssnnls import core
from ssnnls.core import (SUPPORT_SHARE, GroupedDictionary, SparsityConfig,
                         checked_data, eval_objective_p1, eval_objective_p2, normalize_columns,
                         support_matvec)
from ssnnls.doas import (DeformationGrid, DoasFitConfig, build_deformation_dictionary,
                         fit_doas, synthesize_references, wavelength_grid)
from ssnnls.hsi import HsiScene, demix_scene
from ssnnls.sgp import solve_problem1, solve_problem2
from ssnnls.errors import ConfigError, DegenerateColumnError

from oracles import dense_objective_p1, dense_objective_p2, diff, fd_gradient, hoyer


def test_normalize_columns_known_column():
    normalized, scales = normalize_columns(np.array([[3.0], [4.0]]))
    np.testing.assert_allclose(normalized[:, 0], [0.6, 0.8])
    np.testing.assert_allclose(scales, [5.0])


def test_normalize_columns_round_trip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 5))
    normalized, scales = normalize_columns(a)
    np.testing.assert_allclose(normalized * scales, a, rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(normalized, axis=0), np.ones(5), rtol=1e-14)


def test_normalize_columns_rejects_zero_column():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateColumnError):
        normalize_columns(a)


def test_grouped_dictionary_structure():
    dct = GroupedDictionary(np.ones((4, 6)), np.array([0, 2, 6]))
    assert dct.n_rows == 4
    assert dct.n_columns == 6
    assert dct.n_groups == 2
    assert dct.group_slice(1) == slice(2, 6)
    np.testing.assert_array_equal(dct.group_sizes(), [2, 4])


@pytest.mark.parametrize("offsets", [[1, 6], [0, 5], [0, 3, 3, 6], [0, 4, 2, 6], [0]])
def test_grouped_dictionary_rejects_bad_offsets(offsets):
    with pytest.raises(ValueError):
        GroupedDictionary(np.ones((4, 6)), np.array(offsets))


@pytest.mark.parametrize("solve", [solve_problem1, solve_problem2])
def test_config_sized_for_more_groups_is_rejected(solve):
    # a config that gives one group more than the dictionary has a weight
    # and a floor fails instead of reaching a solve
    rng = np.random.default_rng(2)
    dct = GroupedDictionary(rng.normal(size=(8, 6)), np.array([0, 2, 6]))
    padded = SparsityConfig(gamma=[0.1, 0.1, 0.0], gamma0=0.0, eps=[0.05, 0.05, 1.0])
    with pytest.raises(ValueError, match=r"gamma must have shape \(2,\)"):
        solve(dct, rng.normal(size=8), padded)


def test_sparsity_config_validation():
    ok = SparsityConfig(gamma=np.array([0.1, 0.2]), gamma0=0.01, eps=np.array([0.05, 0.05]))
    ok.validate(2)
    with pytest.raises(ConfigError):
        SparsityConfig(gamma=np.array([-0.1, 0.2]), gamma0=0.0,
                       eps=np.array([0.05, 0.05])).validate(2)
    with pytest.raises(ConfigError):
        SparsityConfig(gamma=np.array([0.1, 0.2]), gamma0=-1.0,
                       eps=np.array([0.05, 0.05])).validate(2)
    with pytest.raises(ConfigError):
        SparsityConfig(gamma=np.array([0.1, 0.2]), gamma0=0.0,
                       eps=np.array([0.0, 0.05])).validate(2)
    with pytest.raises(ConfigError):
        SparsityConfig(gamma=np.array([0.1, 0.2]), gamma0=0.0,
                       eps=np.array([0.05, 0.05]), r=-0.5).validate(2)
    with pytest.raises(ConfigError):
        SparsityConfig(gamma=np.array([0.1, 0.2]), gamma0=0.0,
                       eps=np.array([0.05, 0.05]), r=3.0).validate(2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["gamma", "gamma0", "eps", "r"])
def test_sparsity_config_rejects_non_finite_values(name, value):
    # NaN passes every sign check, and a NaN or infinite weight would reach
    # the solvers
    fields = dict(gamma=np.array([0.1, 0.2]), gamma0=0.01, eps=np.array([0.05, 0.05]),
                  r=1.0)
    fields[name] = np.array([value, 0.2]) if name in ("gamma", "eps") else value
    with pytest.raises(ConfigError, match="finite"):
        SparsityConfig(**fields).validate(2)


def test_sparsity_config_derived_quantities():
    cfg = SparsityConfig(gamma=np.array([0.1, 0.0]), gamma0=0.0,
                         eps=np.array([0.05, 0.02]), r=0.5)
    assert cfg.budget(2) == pytest.approx(1.5)


def _small_problem(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 6))
    dct = GroupedDictionary(a, np.array([0, 3, 6]))
    b = rng.normal(size=8)
    cfg = SparsityConfig(gamma=np.array([0.3, 0.7]), gamma0=0.2,
                         eps=np.array([0.05, 0.08]))
    return dct, b, cfg


def test_eval_objective_p2_matches_hand_assembly():
    dct, b, cfg = _small_problem()
    x = np.abs(np.random.default_rng(1).normal(size=6)) + 0.1
    out = eval_objective_p2(dct, b, x, cfg)
    resid = dct.entries @ x - b
    fit = 0.5 * resid @ resid
    penalty = (cfg.gamma[0] * diff(x[:3], 0.05)[0] + cfg.gamma[1] * diff(x[3:], 0.08)[0]
               + cfg.gamma0 * diff(x, 0.05)[0])
    assert out.fit == pytest.approx(fit, rel=1e-13)
    assert out.penalty == pytest.approx(penalty, rel=1e-13)
    assert out.value == pytest.approx(fit + penalty, rel=1e-13)
    np.testing.assert_allclose(out.resid, resid, rtol=1e-13)
    fd = fd_gradient(lambda z: eval_objective_p2(dct, b, z, cfg).value, x)
    grad = dct.entries.T @ out.resid + out.penalty_grad
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_eval_objective_p1_matches_hand_assembly():
    dct, b, cfg = _small_problem()
    rng = np.random.default_rng(2)
    x = np.abs(rng.normal(size=6)) + 0.1
    d = np.abs(rng.normal(size=2)) + 0.05
    out = eval_objective_p1(dct, b, x, d, cfg)
    resid = dct.entries @ x - b
    fit = 0.5 * resid @ resid
    penalty = (cfg.gamma[0] * hoyer(np.append(x[:3], d[0]))[0]
               + cfg.gamma[1] * hoyer(np.append(x[3:], d[1]))[0] + cfg.gamma0 * hoyer(x)[0])
    assert out.value == pytest.approx(fit + penalty, rel=1e-13)
    fd_x = fd_gradient(lambda z: eval_objective_p1(dct, b, z, d, cfg).value, x)
    fd_d = fd_gradient(lambda z: eval_objective_p1(dct, b, x, z, cfg).value, d)
    grad = dct.entries.T @ out.resid + out.penalty_grad
    np.testing.assert_allclose(grad, fd_x, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(out.grad_d, fd_d, rtol=1e-6, atol=1e-8)


def _wide_problem(intra_only):
    """50 x 40 problem in four groups of 10; ``intra_only`` drops the inter-group weight."""
    rng = np.random.default_rng(5)
    entries = rng.normal(size=(50, 40))
    b = rng.normal(size=50)
    dct = GroupedDictionary(entries, np.array([0, 10, 20, 30, 40]))
    cfg = SparsityConfig(gamma=[0.3, 0.5, 0.2, 0.4], gamma0=0.0 if intra_only else 0.2,
                         eps=[0.05, 0.08, 0.1, 0.07], r=1.0)
    return dct, b, cfg


def _point(kind):
    rng = np.random.default_rng(6)
    if kind == "3-sparse":
        # one entry inside its group's smoothing ball, one far outside
        x = np.zeros(40)
        x[[2, 15, 33]] = [0.7, 0.02, 1.1]
        assert 3 <= SUPPORT_SHARE * x.size
        return x
    x = rng.uniform(0.01, 1.0, size=40)
    if kind == "zero block":
        x[10:20] = 0.0
    return x


def _assert_matches(got, ref, tol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= tol * max(np.max(np.abs(ref)), 1e-300)


@pytest.fixture(params=["support", "size cutoff"])
def any_size_on_support(request, monkeypatch):
    """Runs a test with the support path at any matrix size, then with the default cutoff."""
    if request.param == "support":
        monkeypatch.setattr(core, "SUPPORT_MIN_ENTRIES", 0)


@pytest.mark.parametrize("kind", ["3-sparse", "dense", "zero block"])
@pytest.mark.parametrize("intra_only", [False, True])
def test_objectives_with_atb_match_dense_assembly(any_size_on_support, kind, intra_only):
    # on the arrays checked_data returns; the loops' model term A'b - grad P
    # is G x - grad F, with the dense gradient
    dct, b, cfg = _wide_problem(intra_only)
    x = _point(kind)
    b, atb = checked_data(dct, b, cfg)
    fit, penalty, grad = dense_objective_p2(dct, b, cfg, x)
    out = eval_objective_p2(dct, b, x, cfg)
    _assert_matches(out.fit, fit)
    _assert_matches(out.penalty, penalty)
    _assert_matches(out.value, fit + penalty)
    _assert_matches(dct.entries.T @ out.resid + out.penalty_grad, grad)
    _assert_matches(out.resid, dct.entries @ x - b)
    _assert_matches(atb - out.penalty_grad, dct.gram @ x - grad)

    d = np.array([0.03, 0.05, 0.02, 0.04])
    fit, penalty, grad_x, grad_d = dense_objective_p1(dct, b, cfg, x, d)
    out = eval_objective_p1(dct, b, x, d, cfg)
    _assert_matches(out.fit, fit)
    _assert_matches(out.penalty, penalty)
    _assert_matches(out.value, fit + penalty)
    _assert_matches(dct.entries.T @ out.resid + out.penalty_grad, grad_x)
    _assert_matches(out.grad_d, grad_d)
    _assert_matches(atb - out.penalty_grad, dct.gram @ x - grad_x)


@pytest.mark.parametrize("nonzeros", [0, 3, 40])
def test_support_matvec_is_the_dense_product(any_size_on_support, nonzeros):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 40))
    gram = a.T @ a
    x = np.zeros(40)
    x[rng.permutation(40)[:nonzeros]] = rng.normal(size=nonzeros)
    _assert_matches(support_matvec(a, x), a @ x, 1e-14)
    _assert_matches(support_matvec(gram, x, symmetric=True), gram @ x, 1e-14)


def test_column_sum_is_kept_read_only():
    entries = np.random.default_rng(8).normal(size=(30, 40))
    dct = GroupedDictionary(entries, np.array([0, 10, 40]))
    total = dct.column_sum
    assert dct.column_sum is total and not total.flags.writeable
    _assert_matches(total, entries.sum(axis=1), 1e-14)


@pytest.mark.parametrize("t", [0.1, 2.5])
@pytest.mark.parametrize("intra_only", [False, True])
def test_constant_point_objectives_match_the_dense_formula(t, intra_only):
    # a constant x takes its residual from the kept A 1; a point equal to
    # that constant at both ends only takes the product
    dct, b, cfg = _wide_problem(intra_only)
    d = np.array([0.03, 0.05, 0.02, 0.04])
    dented = np.full(40, t)
    dented[17] = 0.5 * t
    for x in (np.full(40, t), dented):
        fit, penalty = dense_objective_p2(dct, b, cfg, x)[:2]
        out = eval_objective_p2(dct, b, x, cfg)
        _assert_matches(out.value, fit + penalty, 1e-14)
        _assert_matches(out.resid, dct.entries @ x - b, 1e-14)
        fit, penalty = dense_objective_p1(dct, b, cfg, x, d)[:2]
        out = eval_objective_p1(dct, b, x, d, cfg)
        _assert_matches(out.value, fit + penalty, 1e-14)
        _assert_matches(out.resid, dct.entries @ x - b, 1e-14)


def _desk_deformation_dictionary():
    wl = wavelength_grid(256)
    return build_deformation_dictionary(synthesize_references(wl, seed=7),
                                        DeformationGrid.desk_grid(), wl)


def _nan_call(entry):
    """A zero-argument call of ``entry`` on a 30x9 problem with one NaN in its data."""
    rng = np.random.default_rng(4)
    entries = rng.normal(size=(30, 9))
    offsets = np.array([0, 3, 6, 9])
    dct = GroupedDictionary(entries, offsets)
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    b = entries @ np.abs(rng.normal(size=9))
    b[4] = np.nan
    if entry == "GroupedDictionary":
        bad = entries.copy()
        bad[4, 0] = np.nan
        return lambda: GroupedDictionary(bad, offsets)
    if entry == "fit_doas":
        ddict = _desk_deformation_dictionary()
        data = np.full(ddict.wavelengths.size, 0.1)
        data[4] = np.nan
        return lambda: fit_doas(data, ddict, DoasFitConfig(sparsity=cfg))
    return {
        "solve_problem1": lambda: solve_problem1(dct, b, cfg),
        "solve_problem2": lambda: solve_problem2(dct, b, cfg),
        "penalty_decomposition_l0": lambda: penalty_decomposition_l0(dct, b, cfg),
        "l1_penalized": lambda: l1_penalized(dct, b, 0.1),
        "l1_bregman": lambda: l1_bregman(dct, b, 0.5),
    }[entry]


@pytest.mark.parametrize("entry", [
    "GroupedDictionary", "solve_problem1", "solve_problem2", "penalty_decomposition_l0",
    "l1_penalized", "l1_bregman", "fit_doas"])
def test_entry_points_reject_non_finite_data_fast(entry):
    call = _nan_call(entry)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        call()
    assert time.perf_counter() - t0 < 1.0


def _bad_weight_call(entry, value):
    """A zero-argument call of an l1 baseline entry point with weight ``value``."""
    rng = np.random.default_rng(4)
    entries = rng.normal(size=(30, 9))
    b = entries @ np.abs(rng.normal(size=9))
    dct = GroupedDictionary(entries, np.array([0, 3, 6, 9]))
    if entry == "demix_scene":
        cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
        pixels = entries @ np.abs(rng.normal(size=(9, 40)))
        scene = HsiScene(dct, np.ones(9), pixels)
        return lambda: demix_scene(scene, cfg, solver="l1", l1_gamma=value)
    if entry == "fit_doas":
        ddict = _desk_deformation_dictionary()
        m = ddict.dictionary.n_groups
        cfg = SparsityConfig(gamma=np.full(m, 0.05), gamma0=0.0, eps=np.full(m, 0.05), r=1.0)
        data = ddict.dictionary.entries @ np.full(ddict.dictionary.n_columns, 0.01)
        return lambda: fit_doas(data, ddict, DoasFitConfig(sparsity=cfg, solver="l1",
                                                           l1_tau=value))
    return {
        "l1_penalized": lambda: l1_penalized(dct, b, value),
        "l1_bregman": lambda: l1_bregman(dct, b, value),
    }[entry]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["l1_penalized", "l1_bregman", "demix_scene", "fit_doas"])
def test_l1_entry_points_reject_non_finite_weights_fast(entry, value):
    call = _bad_weight_call(entry, value)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        call()
    assert time.perf_counter() - t0 < 1.0
