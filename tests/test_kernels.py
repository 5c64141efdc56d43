import numpy as np

from ssnnls import kernels


def test_simplex_kernel_handles_edges():
    one = kernels.simplex_project(np.array([-2.0]), 0.7)
    np.testing.assert_allclose(one, [0.7])
    tied = kernels.simplex_project(np.array([0.5, 0.5, 0.5]), 1.0)
    np.testing.assert_allclose(tied, np.full(3, 1.0 / 3.0), atol=1e-12)
    out = kernels.simplex_project(np.array([10.0, 0.0, -5.0]), 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)


def test_group_floor_kernel_feasible_input_is_clipped_only():
    v = np.array([0.4, -0.1, 0.3])
    out = kernels.group_floor_project(v, 0.5)
    np.testing.assert_allclose(out, [0.4, 0.0, 0.3], atol=1e-15)


def test_admm_nonneg_reaches_box_constrained_optimum():
    rng = np.random.default_rng(3)
    n = 6
    a = rng.normal(size=(10, n))
    gram = a.T @ a + 0.5 * np.eye(n)
    delta = float(np.trace(gram)) / n
    kinv = np.linalg.inv(gram + delta * np.eye(n))
    anchor = np.abs(rng.normal(size=n))
    lin = rng.normal(size=n)
    v, p, u, iters, rel_p, rel_d = kernels.admm_nonneg(
        kinv, anchor, lin, anchor.copy(), np.zeros(n), delta, 1e-10, 1e-10, 50000, 0)
    assert rel_p <= 1e-10 and rel_d <= 1e-10
    assert np.all(v >= 0.0)
    # optimality: gradient non-negative on the active set, zero elsewhere
    grad = gram @ (v - anchor) + lin
    active = v <= 1e-9
    assert np.all(grad[active] >= -1e-6)
    assert np.max(np.abs(grad[~active])) < 1e-6
