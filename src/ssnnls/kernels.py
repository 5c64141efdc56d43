"""Hot numeric kernels: the simplex projections, and one retired ADMM loop.

The projections reduce to one threshold search over sorted breakpoints.
Both problems solve their models exactly (see :mod:`ssnnls.qp`), so no
solver calls ``admm_nonneg``; it stays while the benchmark's tracer
patches that name (ROADMAP item 4).  All are plain numpy.
"""

import numpy as np


# ---------------------------------------------------------------------------
# simplex projections
#
# All reduce to the threshold problem: given v, positive weights w and
# radius r > 0, find theta such that y = max(v - theta*w, 0) satisfies
# sum(w*y) = r.  g(theta) = sum(w*max(v - theta*w, 0)) is piecewise linear
# and decreasing; scan its breakpoints v_i/w_i in descending order.
# ---------------------------------------------------------------------------


def _simplex_theta(v, w, radius):
    t = v / w
    order = np.argsort(-t, kind="stable")
    ts = t[order]
    cwv = np.cumsum((w * v)[order])
    cww = np.cumsum((w * w)[order])
    n = v.size
    if n > 1:
        # g evaluated at each interior breakpoint
        g = cwv[:-1] - ts[1:] * cww[:-1]
        hit = np.nonzero(g >= radius)[0]
        if hit.size:
            k = hit[0]
            return (cwv[k] - radius) / cww[k]
    return (cwv[n - 1] - radius) / cww[n - 1]


def simplex_project(v, radius):
    """Project v onto {y >= 0, sum(y) = radius}, radius > 0."""
    theta = _simplex_theta(v, np.ones_like(v), radius)
    return np.maximum(v - theta, 0.0)


def weighted_simplex_project(v, w, radius):
    """Project v onto {y >= 0, sum(w*y) = radius}, w > 0, radius > 0."""
    theta = _simplex_theta(v, w, radius)
    return np.maximum(v - theta * w, 0.0)


def group_floor_project(s, eps):
    """Project a stacked vector s onto {y >= 0, sum(y) >= eps}."""
    y = np.maximum(s, 0.0)
    if y.sum() >= eps:
        return y
    return simplex_project(s, eps)


# ---------------------------------------------------------------------------
# retired ADMM loop
#
# Minimises q(z) = (z-a)'(G/2 + C)(z-a) + (z-a)'grad over the orthant, via
# splitting u/v with penalty delta.  The u-update solves
# (G + 2C + delta*I) u = ..., precomputed as the explicit inverse `kinv`
# so each iteration costs one matvec.
# ---------------------------------------------------------------------------


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
