"""Hot numeric kernels: the simplex projections and the two ADMM loops.

The projections reduce to one threshold search over sorted breakpoints;
the ADMM loops solve strongly convex QP subproblems (see :mod:`ssnnls.qp`)
from a precomputed explicit inverse.  ``admm_grouped`` is problem 1's
inner solver.  Problem 2 runs no ADMM: its models are solved exactly, and
no solver calls ``admm_nonneg``; it stays while ``perfbench/tracing.py``
patches that name.  All are plain numpy.
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
# ADMM inner loops
#
# Both loops minimise q(z) = (z-a)'(G/2 + C)(z-a) + (z-a)'grad over a
# feasible set, via splitting u/v with penalty delta.  The u-update solves
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


def admm_grouped(kinv, anchor_x, grad_x, offsets, eps, anchor_d, grad_d, cd2pd,
                 budget, vx, px, vd, pd, delta, tol_primal, tol_dual, max_iters):
    """ADMM for the grouped quadratic model with dummy variables.

    Coordinates ``x[offsets[j]:offsets[j+1]]`` form group j with dummy
    ``d[j]``; any coordinates past ``offsets[-1]`` are sign-free.  The
    w-update projects the dummies onto the budget set in the metric given
    by ``cd2pd = diag(2 C_d) + delta``; the v-update projects each stacked
    group onto {>= 0, sum >= eps_j}.  Returns
    ``(vx, vd, px, pd, u, w, iters, rel_primal, rel_dual)``.
    """
    n = anchor_x.size
    m = eps.size
    n_grouped = int(offsets[-1])
    vx = vx.copy()
    px = px.copy()
    vd = vd.copy()
    pd = pd.copy()
    u = anchor_x.copy()
    w = anchor_d.copy()
    sqm = np.sqrt(cd2pd)
    zdiv = eps * sqm
    rel_p = np.inf
    rel_d = np.inf
    for k in range(max_iters):
        rhs = delta * (vx - anchor_x) - px - grad_x
        u = anchor_x + kinv @ rhs
        wbar = (delta * vd - pd - grad_d + (cd2pd - delta) * anchor_d) / cd2pd
        z = sqm * wbar
        zc = np.maximum(z, 0.0)
        if budget <= 0.0:
            z = np.zeros_like(z)
        elif (zc / zdiv).sum() <= budget:
            z = zc
        else:
            z = weighted_simplex_project(z, 1.0 / zdiv, budget)
        w = z / sqm
        vx_new = np.empty_like(vx)
        vd_new = np.empty_like(vd)
        sx = u + px / delta
        sd = w + pd / delta
        for j in range(m):
            a, b = offsets[j], offsets[j + 1]
            stacked = np.concatenate((sx[a:b], sd[j:j + 1]))
            proj = group_floor_project(stacked, eps[j])
            vx_new[a:b] = proj[:-1]
            vd_new[j] = proj[-1]
        vx_new[n_grouped:] = sx[n_grouped:]
        px = px + delta * (u - vx_new)
        pd = pd + delta * (w - vd_new)
        pr = np.sqrt(np.sum((u - vx_new) ** 2) + np.sum((w - vd_new) ** 2))
        du = np.sqrt(np.sum((vx_new - vx) ** 2) + np.sum((vd_new - vd) ** 2))
        nu = np.sqrt(np.sum(u ** 2) + np.sum(w ** 2))
        nv = np.sqrt(np.sum(vx_new ** 2) + np.sum(vd_new ** 2))
        npn = np.sqrt(np.sum(px ** 2) + np.sum(pd ** 2))
        rel_p = pr / max(1.0, max(nu, nv))
        rel_d = delta * du / max(1.0, npn)
        vx = vx_new
        vd = vd_new
        if rel_p <= tol_primal and rel_d <= tol_dual:
            return vx, vd, px, pd, u, w, k + 1, rel_p, rel_d
    return vx, vd, px, pd, u, w, max_iters, rel_p, rel_d
