"""One retired ADMM loop, in plain numpy.

Both problems solve their models exactly (see :mod:`ssnnls.qp`), so no
solver calls ``admm_nonneg``; it stays while the benchmark's tracer
patches that name.
"""

import numpy as np


# Minimises q(z) = (z-a)'(G/2 + C)(z-a) + (z-a)'grad over the orthant, via
# splitting u/v with penalty delta.  The u-update solves
# (G + 2C + delta*I) u = ..., precomputed as the explicit inverse `kinv`
# so each iteration costs one matvec.


def admm_nonneg(kinv, anchor, grad, v, p, delta, tol_primal, tol_dual, max_iters, n_free):
    """ADMM for the orthant-constrained quadratic model.

    The trailing ``n_free`` coordinates are sign-unconstrained.  ``v`` and
    ``p`` are warm-start values and are not modified in place.  Returns
    ``(v, p, u, iters, rel_primal, rel_dual)``.
    """
    n = anchor.size
    v = v.copy()
    p = p.copy()
    u = anchor.copy()
    rel_p = np.inf
    rel_d = np.inf
    for k in range(max_iters):
        rhs = delta * (v - anchor) - p - grad
        u = anchor + kinv @ rhs
        z = u + p / delta
        v_new = np.maximum(z, 0.0)
        if n_free:
            v_new[n - n_free:] = z[n - n_free:]
        p = p + delta * (u - v_new)
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v_new)
        rel_p = np.linalg.norm(u - v_new) / max(1.0, max(nu, nv))
        rel_d = delta * np.linalg.norm(v_new - v) / max(1.0, np.linalg.norm(p))
        v = v_new
        if rel_p <= tol_primal and rel_d <= tol_dual:
            return v, p, u, k + 1, rel_p, rel_d
    return v, p, u, max_iters, rel_p, rel_d
