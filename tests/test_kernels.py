import numpy as np

from ssnnls import kernels


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
