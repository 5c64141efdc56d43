import numpy as np
import pytest

from ssnnls import qp
from ssnnls.errors import NonConvergenceError
from ssnnls.qp import QpSubproblem, model_value, solve_qp_p1, solve_qp_p2

import oracles


def test_model_value_zero_at_anchor_and_matches_reference():
    rng = np.random.default_rng(0)
    sub = oracles.random_p1_subproblem(rng)
    d0 = sub.anchor_d.copy()
    assert model_value(sub, sub.anchor, d0) == 0.0
    for _ in range(5):
        x = rng.normal(size=sub.anchor.size)
        d = rng.normal(size=sub.anchor_d.size)
        assert model_value(sub, x, d) == pytest.approx(
            oracles.quad_value(sub, x, d), rel=1e-12, abs=1e-12)


def test_subproblem_validation():
    rng = np.random.default_rng(1)
    sub = oracles.random_p2_subproblem(rng)
    sub.validate(grouped=False)
    with pytest.raises(ValueError):
        QpSubproblem(sub.gram, sub.lin, sub.anchor, -np.ones_like(sub.shift)).validate(False)
    with pytest.raises(ValueError):
        QpSubproblem(sub.gram, sub.lin[:-1], sub.anchor, sub.shift).validate(False)
    with pytest.raises(ValueError):
        QpSubproblem(sub.gram, sub.lin, sub.anchor, sub.shift,
                     n_free=sub.anchor.size + 1).validate(False)
    with pytest.raises(ValueError):
        QpSubproblem(sub.gram, sub.lin, sub.anchor, sub.shift).validate(True)
    grouped = oracles.random_p1_subproblem(rng)
    grouped.validate(grouped=True)
    for budget in (-0.5, np.nan, np.inf):
        grouped.budget = budget
        with pytest.raises(ValueError, match="budget"):
            grouped.validate(grouped=True)


def test_solve_qp_p2_matches_projected_gradient_oracle():
    rng = np.random.default_rng(7)
    for _ in range(15):
        sub = oracles.random_p2_subproblem(rng)
        sol = solve_qp_p2(sub)
        ref = oracles.pg_p2(sub)
        n_con = sub.anchor.size - sub.n_free
        assert np.min(sol.x[:n_con]) >= -1e-10
        np.testing.assert_allclose(sol.x, ref, atol=1e-5)
        assert model_value(sub, sol.x) <= model_value(sub, ref) + 1e-8


@pytest.mark.parametrize("n_free", [0, 3])
def test_solve_qp_p2_matches_full_factor_on_wide_near_duplicate_models(n_free):
    # shift 1e-9 on a rank-12 Gram matrix of 24 near-duplicate columns:
    # too ill-conditioned for the projected-gradient oracle
    rng = np.random.default_rng(40 + n_free)
    for _ in range(20):
        sub = oracles.wide_p2_subproblem(rng, n_free)
        sol = solve_qp_p2(sub)
        ref = model_value(sub, oracles.rolled_cholesky_p2(sub))
        assert np.min(sol.x[:sub.anchor.size - n_free]) >= 0.0
        assert sol.iterations >= 1
        assert model_value(sub, sol.x) <= ref + 1e-9 * max(1.0, abs(ref))


def test_solve_qp_p1_matches_pg_dykstra_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        sub = oracles.random_p1_subproblem(rng)
        sol = solve_qp_p1(sub)
        ref_x, ref_d = oracles.pg_p1(sub)
        np.testing.assert_allclose(sol.x, ref_x, atol=1e-5)
        np.testing.assert_allclose(sol.d, ref_d, atol=1e-5)
        # feasibility of the returned point
        n_grouped = int(sub.offsets[-1])
        assert np.min(sol.x[:n_grouped]) >= -1e-8
        assert np.min(sol.d) >= -1e-10
        assert float(np.sum(sol.d / sub.eps)) <= sub.budget + 1e-8
        for j in range(sub.eps.size):
            a, b = int(sub.offsets[j]), int(sub.offsets[j + 1])
            assert np.sum(sol.x[a:b]) + sol.d[j] >= sub.eps[j] - 1e-8


def test_nonconvergence_raises_with_diagnostics(monkeypatch):
    # the active set stops at its iteration cap, here zero
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    rng = np.random.default_rng(10)
    sub = oracles.random_p1_subproblem(rng)
    with pytest.raises(NonConvergenceError, match="problem-1 active set") as exc:
        solve_qp_p1(sub)
    assert exc.value.iterations == 0


def _assert_exact_and_feasible(sub, sol):
    ref = model_value(sub, *oracles.slsqp_p1(sub))
    assert model_value(sub, sol.x, sol.d) <= ref + 1e-9 * max(1.0, abs(ref))
    c = sub.anchor.size - sub.n_free
    assert np.min(sol.x[:c]) >= 0.0 and np.min(sol.d) >= 0.0
    for j in range(sub.eps.size):
        a, b = int(sub.offsets[j]), int(sub.offsets[j + 1])
        assert np.sum(sol.x[a:b]) + sol.d[j] >= sub.eps[j] * (1.0 - 1e-12)
    assert np.sum(sol.d / sub.eps) <= sub.budget * (1.0 + 1e-12)
    m = sub.eps.size
    assert 1 <= sol.iterations < qp.ACTIVE_SET_ITERS_PER_COLUMN * (sub.anchor.size + m)


@pytest.mark.parametrize("n_free", [0, 1, 2])
def test_solve_qp_p1_exact_on_one_material_models(n_free):
    # floors of the empty groups and the budget are linearly dependent, and
    # the dummies' curvature is at most 2e-6: outside the oracle's reach
    rng = np.random.default_rng(60 + n_free)
    for _ in range(20):
        sub = oracles.one_material_p1_subproblem(rng, n_free)
        _assert_exact_and_feasible(sub, solve_qp_p1(sub))


def test_solve_qp_p1_exact_on_one_material_inter_group_models():
    # the hsi-inter layout: six one-column groups, budget 5 of 6
    rng = np.random.default_rng(63)
    for _ in range(20):
        sub = oracles.one_material_p1_subproblem(rng, int(rng.integers(3)), singleton=True)
        _assert_exact_and_feasible(sub, solve_qp_p1(sub))
