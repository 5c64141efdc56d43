import numpy as np
import pytest

from ssnnls import qp
from ssnnls.errors import NonConvergenceError
from ssnnls.qp import AdmmParams, QpSubproblem, QpWorkspace, model_value, solve_qp_p1, \
    solve_qp_p2

import oracles

TIGHT = AdmmParams(tol=1e-8, max_iters=200000)


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


def test_solve_qp_p1_matches_pg_dykstra_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        sub = oracles.random_p1_subproblem(rng)
        sol = solve_qp_p1(sub, TIGHT)
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


def test_nonconvergence_raises_with_diagnostics():
    rng = np.random.default_rng(10)
    sub = oracles.random_p1_subproblem(rng)
    with pytest.raises(NonConvergenceError) as exc:
        solve_qp_p1(sub, AdmmParams(tol=1e-15, max_iters=8))
    assert exc.value.iterations == 8
    assert exc.value.residuals is not None


def test_workspace_caches_factorizations(monkeypatch):
    monkeypatch.setattr(qp, "KINV_CACHE_SIZE", 2)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(10, 6))
    ws = QpWorkspace(a.T @ a)
    diag = np.full(6, 2.0)
    first = ws.kinv(diag)
    assert ws.kinv(diag) is first
    ws.kinv(np.full(6, 3.0))
    ws.kinv(np.full(6, 4.0))  # evicts the first entry
    assert ws.kinv(diag) is not first
    np.testing.assert_allclose(ws.kinv(diag) @ (a.T @ a + np.diag(diag)),
                               np.eye(6), atol=1e-10)
    assert ws.mean_eig == pytest.approx(np.trace(a.T @ a) / 6)


def test_workspace_delta_hints_round_trip():
    ws = QpWorkspace(np.eye(3))
    assert ws.delta_hint() is None
    ws.store_delta(0.25)
    assert ws.delta_hint() == 0.25
    ws.freeze_hints()
    ws.store_delta(9.0)
    assert ws.delta_hint() == 0.25


def test_delta_hint_set_after_successful_solves():
    rng = np.random.default_rng(12)
    sub = oracles.random_p1_subproblem(rng)
    ws = QpWorkspace(sub.gram)
    solve_qp_p1(sub, TIGHT, workspace=ws)
    assert ws.delta_hint() is not None and ws.delta_hint() > 0
