import numpy as np
import pytest

from ssnnls import qp
from ssnnls.errors import NonConvergenceError
from ssnnls.qp import model_value, solve_qp_p1, solve_qp_p2

import oracles


def _model_value(sub, x, d):
    return model_value(sub.gram, sub.shift, sub.q, sub.q_d, sub.anchor, sub.anchor_d, x, d)


def test_model_value_zero_at_anchor_and_matches_reference():
    rng = np.random.default_rng(0)
    sub = oracles.random_p1_subproblem(rng)
    d0 = sub.anchor_d.copy()
    assert _model_value(sub, sub.anchor, d0) == 0.0
    for _ in range(5):
        x = rng.normal(size=sub.anchor.size)
        d = rng.normal(size=sub.anchor_d.size)
        assert _model_value(sub, x, d) == pytest.approx(
            oracles.quad_value(sub, x, d), rel=1e-12, abs=1e-12)


def test_solve_qp_p2_matches_projected_gradient_oracle():
    rng = np.random.default_rng(7)
    for _ in range(15):
        sub = oracles.random_p2_subproblem(rng)
        x, _ = solve_qp_p2(*sub.p2_args())
        ref = oracles.pg_p2(sub)
        assert np.min(x) >= -1e-10
        np.testing.assert_allclose(x, ref, atol=1e-5)
        assert oracles.quad_value(sub, x) <= oracles.quad_value(sub, ref) + 1e-8


@pytest.mark.parametrize("draw", [0, 3])
def test_solve_qp_p2_matches_full_factor_on_wide_near_duplicate_models(draw):
    # shift 1e-9 on a rank-12 Gram matrix of 24 near-duplicate columns:
    # too ill-conditioned for the projected-gradient oracle
    rng = np.random.default_rng(40 + draw)
    for _ in range(20):
        sub = oracles.wide_p2_subproblem(rng)
        x, iters = solve_qp_p2(*sub.p2_args())
        ref = oracles.quad_value(sub, oracles.cholesky_nnls_p2(sub))
        assert np.min(x) >= 0.0
        assert iters >= 1
        assert oracles.quad_value(sub, x) <= ref + 1e-9 * max(1.0, abs(ref))


def test_solve_qp_p1_matches_pg_dykstra_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        sub = oracles.random_p1_subproblem(rng)
        x, d, _ = solve_qp_p1(*sub.p1_args())
        ref_x, ref_d = oracles.pg_p1(sub)
        np.testing.assert_allclose(x, ref_x, atol=1e-5)
        np.testing.assert_allclose(d, ref_d, atol=1e-5)
        # feasibility of the returned point
        assert np.min(x) >= -1e-8
        assert np.min(d) >= -1e-10
        assert float(np.sum(d / sub.eps)) <= sub.budget + 1e-8
        for j in range(sub.eps.size):
            a, b = int(sub.offsets[j]), int(sub.offsets[j + 1])
            assert np.sum(x[a:b]) + d[j] >= sub.eps[j] - 1e-8


def test_nonconvergence_raises_with_diagnostics(monkeypatch):
    # the active set stops at its iteration cap, here zero
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    rng = np.random.default_rng(10)
    sub = oracles.random_p1_subproblem(rng)
    with pytest.raises(NonConvergenceError, match="problem-1 active set") as exc:
        solve_qp_p1(*sub.p1_args())
    assert exc.value.iterations == 0


def _assert_exact_and_feasible(sub):
    x, d, iters = solve_qp_p1(*sub.p1_args())
    ref = _model_value(sub, *oracles.slsqp_p1(sub))
    assert _model_value(sub, x, d) <= ref + 1e-9 * max(1.0, abs(ref))
    assert np.min(x) >= 0.0 and np.min(d) >= 0.0
    for j in range(sub.eps.size):
        a, b = int(sub.offsets[j]), int(sub.offsets[j + 1])
        assert np.sum(x[a:b]) + d[j] >= sub.eps[j] * (1.0 - 1e-12)
    assert np.sum(d / sub.eps) <= sub.budget * (1.0 + 1e-12)
    m = sub.eps.size
    assert 1 <= iters < qp.ACTIVE_SET_ITERS_PER_COLUMN * (sub.anchor.size + m)


@pytest.mark.parametrize("draw", [0, 1, 2])
def test_solve_qp_p1_exact_on_one_material_models(draw):
    # floors of the empty groups and the budget are linearly dependent, and
    # the dummies' curvature is at most 2e-6: outside the oracle's reach
    rng = np.random.default_rng(60 + draw)
    for _ in range(20):
        _assert_exact_and_feasible(oracles.one_material_p1_subproblem(rng))


def test_solve_qp_p1_exact_on_one_material_inter_group_models():
    # the hsi-inter layout: six one-column groups, budget 5 of 6
    rng = np.random.default_rng(63)
    for _ in range(20):
        _assert_exact_and_feasible(oracles.one_material_p1_subproblem(rng, singleton=True))


def test_dummy_repair_meets_floors_and_budget():
    # the active set can leave d over the budget by a few rounding units;
    # the repair must meet every floor and the budget while moving d by no
    # more than that, the last group's floor exactly
    ulp = np.finfo(float).eps
    offsets, eps = np.array([0, 2, 4]), np.array([0.5, 0.5])
    x = np.array([0.3, 0.1, 0.2, 0.2])
    sums = np.array([x[0:2].sum(), x[2:4].sum()])
    d = eps - sums + np.array([0.3, 0.0])
    budget = float(np.sum(d / eps)) * (1.0 - 8.0 * ulp)
    assert np.sum(d / eps) > budget * (1.0 + 2.0 * ulp)
    got = qp._polish_dummies(x, d, offsets, eps, budget)
    assert np.min(got) >= 0.0
    assert np.all(sums + got >= eps * (1.0 - 2.0 * ulp))
    assert np.sum(got / eps) <= budget * (1.0 + 2.0 * ulp)
    assert np.max(np.abs(got - d)) <= 1e-14 * np.max(np.abs(d))


def _warm_start_cases(kind):
    """(h, diag, q, start, cold minimiser, cold iterations) from sparse and near-duplicate models.

    Starts are built from the cold minimiser's support S: ``exact`` is S,
    ``superset`` adds the zero column of least positive gradient, which
    must leave, ``disjoint`` takes three columns outside S, ``empty``
    none, and ``dense`` every column, past ``SUPPORT_SHARE``.
    """
    rng = np.random.default_rng(70)
    cases = []
    for make in (oracles.sparse_p2_subproblem, oracles.wide_p2_subproblem):
        for _ in range(10):
            sub = make(rng)
            h, diag, q = sub.gram, 2.0 * sub.shift, sub.q
            cold, cold_iters = qp.solve_qp_p2(h, diag, q, np.zeros(q.size, dtype=bool))
            support, zeros = cold > 0, np.flatnonzero(cold == 0)
            start = np.zeros(q.size, dtype=bool)
            if kind in ("exact", "superset"):
                start[support] = True
            if kind == "superset":
                grad = h[zeros] @ cold + diag * cold[zeros] - q[zeros]
                start[zeros[np.argmin(grad)]] = True
            elif kind == "disjoint":
                start[zeros[:3]] = True
            elif kind == "dense":
                start[:] = True
            if kind != "dense" and np.count_nonzero(start) > qp.SUPPORT_SHARE * q.size:
                continue  # a start past the share runs cold, as ``dense`` checks
            cases.append((h, diag, q, start, cold, cold_iters))
    assert len(cases) >= 15
    return cases


@pytest.mark.parametrize("kind", ["exact", "superset", "disjoint", "empty", "dense"])
def test_active_set_from_a_start_returns_the_cold_minimiser(kind):
    for h, diag, q, start, cold, cold_iters in _warm_start_cases(kind):
        z, iters = qp.solve_qp_p2(h, diag, q, start)
        assert np.max(np.abs(z - cold)) <= 1e-12 * np.max(np.abs(cold))
        # KKT: non-negative, stationary on the support, no descent off it
        grad = h @ z + diag * z - q
        scale = 1e-12 * np.max(np.abs(q))
        assert z.min() >= 0.0
        assert np.max(np.abs(grad[z > 0])) <= scale and grad[z == 0].min() >= -scale
        if kind == "exact":
            assert iters == 1
        elif kind == "superset":
            assert not np.any(z[start & (cold == 0)])
        elif kind in ("empty", "dense"):
            assert iters == cold_iters and np.array_equal(z, cold)


def test_solve_qp_p2_starts_from_the_anchor():
    # an anchor on the minimiser's support needs one passive solve
    rng = np.random.default_rng(80)
    for _ in range(10):
        sub = oracles.sparse_p2_subproblem(rng)
        h, diag, q, _ = sub.p2_args()
        cold, _ = solve_qp_p2(h, diag, q, np.zeros(q.size, dtype=bool))
        warm, iters = solve_qp_p2(h, diag, q, cold > 0.0)
        assert iters == 1
        assert np.max(np.abs(warm - cold)) <= 1e-12 * np.max(np.abs(cold))


def _assert_factor_from_scratch(factor, s):
    """The factor's W and its solve ``s`` against a factor of the same columns from scratch.

    The reference is W = L^-1 from numpy's Cholesky factor L of the block
    (G + diag I)[P, P].  Two stable factorisations of one block differ by
    up to its condition number times the rounding unit, so that sets the
    tolerance.
    """
    cols = factor.passive.tolist()
    k = len(cols)
    block = factor.gram[np.ix_(cols, cols)] + factor.diag * np.eye(k)
    ref = np.linalg.inv(np.linalg.cholesky(block))
    tol = 1e3 * np.finfo(float).eps * np.linalg.cond(block)
    np.testing.assert_allclose(factor.inv[:k, :k], ref, rtol=0.0,
                               atol=tol * np.max(np.abs(ref)))
    want = ref.T @ (ref @ factor.q[cols])
    np.testing.assert_allclose(s, want, rtol=0.0, atol=tol * np.max(np.abs(want)))


def test_grown_factor_equals_a_factor_from_scratch():
    # adds past the starting capacity, pops of the last column and drops
    # from the middle, each followed by the factor of the same columns from scratch
    rng = np.random.default_rng(90)
    a = rng.normal(size=(40, 20))
    h, diag, q = a.T @ a, 1e-6, rng.normal(size=20)
    factor = qp._PassiveFactor(h, diag, q, 2)
    for j in (4, 11, 0, 7, 19):
        factor.add(j)
        _assert_factor_from_scratch(factor, factor.solve())
    factor.truncate(4)
    _assert_factor_from_scratch(factor, factor.solve())
    for j in (3, 15, 8):
        factor.add(j)
    factor.keep(np.array([True, False, True, True, False, True, True]))
    assert factor.passive.tolist() == [4, 0, 7, 15, 8]
    _assert_factor_from_scratch(factor, factor.solve())
    factor.keep(np.array([False, True, True, True, True]))
    factor.add(12)
    _assert_factor_from_scratch(factor, factor.solve())


def test_a_dropped_column_takes_its_pivot_out_of_the_rank_check(monkeypatch):
    # column 1's pivot squared, 2.5 eps, passes the check on two columns and
    # fails it on three: once popped, or dropped by keep() through appends
    # again or a delete, it must not fail a third column
    h = np.diag([1.0, 2.5 * np.finfo(float).eps, 1.0, 1.0])
    for drop, appends_per_delete in (("pop", 0), ("keep", 1), ("keep", 0)):
        monkeypatch.setattr(qp, "_APPENDS_PER_DELETE", appends_per_delete)
        factor = qp._PassiveFactor(h, 0.0, np.ones(4), 4)
        factor.add(1)
        factor.add(0)
        with pytest.raises(ValueError, match="numerically singular on 3 columns"):
            factor.add(2)
        if drop == "pop":
            factor.truncate(0)
            factor.add(0)
        else:
            factor.keep(np.array([False, True]))
        factor.add(2)
        factor.add(3)
        assert factor.passive.tolist() == [0, 2, 3]


def test_random_adds_and_drops_equal_a_factor_from_scratch():
    # seeded sequences of appends and drops, of one column or several, at
    # about 5 and about 60 columns, so keep() re-appends and deletes, and
    # with a refining factor, which keeps the block too
    for seed, size, refine in ((0, 5, False), (1, 60, False), (2, 60, True)):
        rng = np.random.default_rng(100 + seed)
        n = 2 * size + 10
        a = rng.normal(size=(3 * n, n))
        h, q = a.T @ a, rng.normal(size=(n, 3))
        factor = qp._PassiveFactor(h, 1e-6, q, 4, refine=refine)
        for j in rng.permutation(n)[:size].tolist():
            factor.add(j)
        s = factor.solve()
        _assert_factor_from_scratch(factor, s)
        for _ in range(40):
            k = factor.size
            if k > size // 2 and rng.random() < 0.5:
                mask = rng.random(k) > min(2.0 / k, 0.5)
                gone = int(rng.integers(k))
                mask[gone], mask[(gone + 1) % k] = False, True
                factor.keep(mask)
            else:
                out = np.setdiff1d(np.arange(n), factor.passive)
                factor.add(int(rng.choice(out)))
            s = factor.solve()
            _assert_factor_from_scratch(factor, s)


def test_a_drop_far_from_the_end_makes_no_append():
    # past _APPENDS_PER_DELETE survivors per dropped column after the first
    # dropped one, keep() deletes; up to it, it appends them again
    rng = np.random.default_rng(95)
    a = rng.normal(size=(60, 30))
    added = []

    class Counted(qp._PassiveFactor):
        def add(self, j):
            added.append(j)
            super().add(j)

    factor = Counted(a.T @ a, 0.0, a.T @ rng.normal(size=60), 4)
    for j in range(20):
        factor.add(j)
    added.clear()
    mask = np.ones(20, dtype=bool)
    mask[[3, 11]] = False
    factor.keep(mask)
    assert added == [] and factor.passive.tolist() == [j for j in range(20) if mask[j]]
    _assert_factor_from_scratch(factor, factor.solve())
    last = factor.size - 1 - qp._APPENDS_PER_DELETE
    factor.keep(np.arange(factor.size) != last)
    assert added == factor.passive[last:].tolist()
    _assert_factor_from_scratch(factor, factor.solve())


def test_a_dependent_candidate_at_a_positive_shift_names_the_shift():
    # a 1e-9 near-twin enters at no shift only as a column that depends on
    # P (skipped, Lawson & Hanson's rule); at a shift too small to make it
    # independent to rounding, the error names c_matrix_scale, as a failed
    # factor of the block does
    rng = np.random.default_rng(2)
    a = rng.normal(size=(12, 4))
    a /= np.linalg.norm(a, axis=0)
    a = np.column_stack([a, a[:, 0] + 1e-9 * rng.normal(size=12)])
    b = a @ np.abs(rng.normal(size=5)) + 0.01 * rng.normal(size=12)
    h, q = a.T @ a, a.T @ b
    z, _ = solve_qp_p2(h, 0.0, q, np.zeros(5, dtype=bool))
    assert np.count_nonzero(z) == 4
    with pytest.raises(ValueError, match="singular on 5 columns; increase c_matrix_scale"):
        solve_qp_p2(h, 1e-30, q, np.zeros(5, dtype=bool))


def test_active_set_factor_equals_a_factor_from_scratch_at_every_solve(monkeypatch):
    # warm starts, step-backs and skipped columns on sparse and near-duplicate models
    seen = {"solve": 0, "keep": 0}

    class Checked(qp._PassiveFactor):
        def solve(self):
            seen["solve"] += 1
            s = super().solve()
            _assert_factor_from_scratch(self, s)
            return s

        def keep(self, mask):
            seen["keep"] += 1
            super().keep(mask)

    monkeypatch.setattr(qp, "_PassiveFactor", Checked)
    for kind in ("superset", "disjoint", "empty"):
        for h, diag, q, start, cold, _ in _warm_start_cases(kind):
            z, _ = qp.solve_qp_p2(h, diag, q, start)
            assert np.max(np.abs(z - cold)) <= 1e-12 * np.max(np.abs(cold))
    assert seen["keep"] >= 10 and seen["solve"] > seen["keep"]


def _padded_model(a, rng, start_cols):
    """Problem 2's model of dictionary ``a``, padded with unit columns that stay at zero.

    The padding keeps a start of ``start_cols`` within ``SUPPORT_SHARE``.
    """
    n = a.shape[1]
    h = np.zeros((4 * n, 4 * n))
    h[:n, :n] = a.T @ a
    h[np.arange(n, 4 * n), np.arange(n, 4 * n)] = 1.0
    q = np.concatenate([a.T @ rng.normal(size=a.shape[0]), -np.ones(3 * n)])
    start = np.zeros(4 * n, dtype=bool)
    start[start_cols] = True
    return h, q, start


@pytest.mark.parametrize("case, start_cols, message", [
    ("twin", [2, 6], "numerically singular on 2 columns"),
    ("twin first", [0, 5], "numerically singular on 2 columns"),
    ("sum", [0, 1, 6], r"not positive definite \(leading minor 3 of 3\)"),
    ("zero", [6], r"not positive definite \(leading minor 1 of 1\)"),
])
def test_dependent_columns_at_zero_shift_raise_value_errors(case, start_cols, message):
    # a start on linearly dependent columns at diag = 0: the messages of a
    # LAPACK factor of the whole block, which the grown factor keeps
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 6))
    extra = {"twin": a[:, 2], "sum": a[:, 0] + a[:, 1], "zero": np.zeros(20)}
    a = np.column_stack([a[:, 4], a]) if case == "twin first" else \
        np.column_stack([a, extra[case]])
    h, q, start = _padded_model(a, rng, start_cols)
    with pytest.raises(ValueError, match=message + ".*increase c_matrix_scale"):
        solve_qp_p2(h, 0.0, q, start)


def test_model_cholesky_names_the_failed_leading_minor():
    a = np.random.default_rng(0).normal(size=(5, 8))
    with pytest.raises(ValueError, match=r"not positive definite \(leading minor 6 of 8\)"):
        qp.model_cholesky(a.T @ a)
    h = a.T @ a + 1e-3 * np.eye(8)
    np.testing.assert_allclose(qp.model_cholesky(h), np.linalg.cholesky(h), rtol=0, atol=0)
