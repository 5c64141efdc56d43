"""Slow, independent reference implementations used to check the package.

The QP solvers are checked against plain projected gradient, with
Dykstra alternating projections supplying feasibility for the grouped
problem, and problem 2's step also against a Cholesky factor of the
whole model Hessian with scipy's NNLS on it, on models too
ill-conditioned for projected gradient; problem 1's step on degenerate,
ill-conditioned one-material models and the penalized and constrained l1
baselines are checked against scipy's SLSQP.  The objectives are
evaluated with dense products and one group at a time.  Nothing here
shares code with the package beyond reading its data containers.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from ssnnls.qp import QpSubproblem


def fd_gradient(f, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def _dense_fit(dct, b, x):
    resid = dct.entries @ x - b
    return 0.5 * float(resid @ resid), dct.entries.T @ resid


def dense_objective_p2(dct, b, cfg, x):
    """Problem 2 at x: (fit, penalty, gradient), by dense products and a loop over groups.

    The smoothed l1 - l2 penalty of a group v with radius e is
    sum(v) - |v|^2 / (2e) inside the ball |v| <= e and sum(v) - |v| + e/2
    outside it; the inter-group term takes every grouped column, with
    radius min(eps).
    """
    def diff(v, e):
        n2 = float(np.sqrt(np.sum(v * v)))
        if n2 <= e:
            return float(np.sum(v)) - n2 * n2 / (2.0 * e), 1.0 - v / e
        return float(np.sum(v)) - n2 + e / 2.0, 1.0 - v / n2

    fit, grad = _dense_fit(dct, b, x)
    penalty = 0.0
    for j in range(dct.n_groups):
        sl = slice(dct.offsets[j], dct.offsets[j + 1])
        value, g = diff(x[sl], cfg.eps[j])
        penalty += cfg.gamma[j] * value
        grad[sl] += cfg.gamma[j] * g
    if cfg.gamma0 > 0.0:
        pre = dct.n_columns - dct.n_free
        value, g = diff(x[:pre], float(np.min(cfg.eps)))
        penalty += cfg.gamma0 * value
        grad[:pre] += cfg.gamma0 * g
    return fit, penalty, grad


def dense_objective_p1(dct, b, cfg, x, d):
    """Problem 1 at (x, d): (fit, penalty, gradient in x, gradient in d), densely.

    The Hoyer ratio of v is sum(v) / |v|, with gradient
    1 / |v| - sum(v) v / |v|^3; group j's ratio is taken of (x_j, d_j).
    """
    def hoyer(v):
        n2 = float(np.sqrt(np.sum(v * v)))
        s = float(np.sum(v))
        return s / n2, 1.0 / n2 - s * v / n2 ** 3

    fit, grad_x = _dense_fit(dct, b, x)
    grad_d = np.zeros(dct.n_groups)
    penalty = 0.0
    for j in range(dct.n_groups):
        sl = slice(dct.offsets[j], dct.offsets[j + 1])
        value, g = hoyer(np.append(x[sl], d[j]))
        penalty += cfg.gamma[j] * value
        grad_x[sl] += cfg.gamma[j] * g[:-1]
        grad_d[j] += cfg.gamma[j] * g[-1]
    if cfg.gamma0 > 0.0:
        pre = dct.n_columns - dct.n_free
        value, g = hoyer(x[:pre])
        penalty += cfg.gamma0 * value
        grad_x[:pre] += cfg.gamma0 * g
    return fit, penalty, grad_x, grad_d


def subproblem(gram, lin, anchor, shift, lin_d=None, **grouped):
    """A QpSubproblem from the model's gradient ``lin`` (and ``lin_d``) at the anchor.

    The package takes the model in standard form, z'(G + 2C)z / 2 - q'z,
    whose linear term is q = (G + 2C) a - lin, and q_d = 2 C_d a_d - lin_d
    for the dummies.
    """
    q = gram @ anchor + 2.0 * shift * anchor - lin
    if lin_d is not None:
        grouped["q_d"] = 2.0 * grouped["shift_d"] * grouped["anchor_d"] - lin_d
    return QpSubproblem(gram=gram, q=q, anchor=anchor, shift=shift, **grouped)


def model_gradient(sub):
    """The model's gradient at the anchor, (lin, lin_d), from its standard form."""
    lin = sub.gram @ sub.anchor + 2.0 * sub.shift * sub.anchor - sub.q
    if sub.anchor_d is None:
        return lin, None
    return lin, 2.0 * sub.shift_d * sub.anchor_d - sub.q_d


def quad_value(sub, x, d=None, lin=None, lin_d=None):
    """The quadratic model: 1/2 dx'G dx + dx'diag(shift)dx + lin'dx (+ dummy part).

    ``lin`` and ``lin_d``, the gradient at the anchor, default to the
    subproblem's own (:func:`model_gradient`).
    """
    if lin is None:
        lin, lin_d = model_gradient(sub)
    dx = np.asarray(x, float) - sub.anchor
    val = 0.5 * float(dx @ sub.gram @ dx) + float(sub.shift @ dx ** 2) + float(lin @ dx)
    if d is not None and sub.anchor_d is not None:
        dd = np.asarray(d, float) - sub.anchor_d
        val += float(sub.shift_d @ dd ** 2) + float(lin_d @ dd)
    return val


def _grad_x(sub, x):
    dx = x - sub.anchor
    return sub.gram @ dx + 2.0 * sub.shift * dx + model_gradient(sub)[0]


def _grad_d(sub, d):
    return 2.0 * sub.shift_d * (d - sub.anchor_d) + model_gradient(sub)[1]


def pg_p2(sub, max_iters=30000, tol=1e-14):
    """Long-run projected gradient on the orthant-constrained model."""
    lip = float(np.linalg.eigvalsh(sub.gram + 2.0 * np.diag(sub.shift))[-1])
    step = 1.0 / lip
    n_con = sub.anchor.size - sub.n_free
    x = sub.anchor.astype(float).copy()
    x[:n_con] = np.maximum(x[:n_con], 0.0)
    for _ in range(max_iters):
        y = x - step * _grad_x(sub, x)
        y[:n_con] = np.maximum(y[:n_con], 0.0)
        if float(np.max(np.abs(y - x))) <= tol * (1.0 + float(np.max(np.abs(x)))):
            return y
        x = y
    return x


def _budget_project_unit(v, eps, budget):
    """Euclidean projection onto {d >= 0, sum(d/eps) <= budget}.

    With the constraint active, d_i = max(v_i - theta/eps_i, 0) for the
    theta solving sum(d/eps) = budget; the active support is found by an
    ascending scan over the breakpoints theta_i = v_i eps_i.
    """
    if budget <= 0.0:
        return np.zeros_like(v)
    d = np.maximum(v, 0.0)
    if float(np.sum(d / eps)) <= budget:
        return d
    breaks = np.sort(v * eps)
    w = 1.0 / eps
    for k in range(breaks.size):
        # support = entries with v_i eps_i > breaks[k]
        act = (v * eps) > breaks[k]
        if not act.any():
            break
        theta = (float(np.sum(v[act] * w[act])) - budget) / float(np.sum(w[act] ** 2))
        if theta >= breaks[k] and (k + 1 >= breaks.size or theta <= breaks[k + 1]):
            return np.maximum(v - theta * w, 0.0)
    theta = (float(np.sum(v * w)) - budget) / float(np.sum(w ** 2))
    return np.maximum(v - theta * w, 0.0)


def dykstra_p1(sub, x0, d0, sweeps=20000, tol=1e-12):
    """Dykstra projection onto the grouped feasible set.

    Alternates between the product set {x prefix >= 0} x {dummy budget}
    and the (coordinate-disjoint, hence exactly projectable) per-group
    half-spaces sum(x_j) + d_j >= eps_j.  Stops when the two partial
    projections agree; the iterate alone can stall for many sweeps while
    the dual corrections build up, so its movement is no certificate.
    """
    nx = x0.size
    n_con = nx - sub.n_free
    m = sub.eps.size
    groups = [list(range(int(sub.offsets[j]), int(sub.offsets[j + 1]))) + [nx + j]
              for j in range(m)]
    u = np.concatenate([x0, d0]).astype(float)
    p = np.zeros_like(u)
    q = np.zeros_like(u)
    for _ in range(sweeps):
        y = u + p
        z = y.copy()
        z[:n_con] = np.maximum(z[:n_con], 0.0)
        z[nx:] = _budget_project_unit(y[nx:], sub.eps, float(sub.budget))
        p = y - z
        y = z + q
        u = y.copy()
        for j, idx in enumerate(groups):
            s = float(np.sum(y[idx]))
            if s < sub.eps[j]:
                u[idx] = y[idx] + (sub.eps[j] - s) / len(idx)
        q = y - u
        if float(np.max(np.abs(z - u))) <= tol:
            break
    return u[:nx], u[nx:]


def pg_p1(sub, max_iters=2500, tol=1e-12):
    """Projected gradient on the grouped model, feasibility via Dykstra."""
    lip = max(float(np.linalg.eigvalsh(sub.gram + 2.0 * np.diag(sub.shift))[-1]),
              float(np.max(2.0 * sub.shift_d)), 1e-12)
    step = 1.0 / lip
    x, d = dykstra_p1(sub, sub.anchor.astype(float).copy(),
                      np.maximum(sub.anchor_d.astype(float), 0.0))
    for _ in range(max_iters):
        gx = _grad_x(sub, x)
        gd = _grad_d(sub, d)
        xn, dn = dykstra_p1(sub, x - step * gx, d - step * gd)
        move = max(float(np.max(np.abs(xn - x))), float(np.max(np.abs(dn - d))))
        x, d = xn, dn
        if move <= tol:
            break
    return x, d


def random_p2_subproblem(rng):
    """Well-conditioned orthant-constrained model, N <= 12."""
    n = int(rng.integers(2, 13))
    n_free = int(rng.integers(0, min(3, n)))
    a = rng.normal(size=(n + 4, n))
    gram = a.T @ a + float(rng.uniform(0.5, 1.5)) * np.eye(n)
    return subproblem(gram=gram, lin=rng.normal(size=n), anchor=0.5 * rng.normal(size=n),
                      shift=rng.uniform(0.05, 0.5, n), n_free=n_free)


def rolled_cholesky_p2(sub):
    """Problem 2's step by a Cholesky factor of the whole model Hessian and scipy's NNLS.

    With the f sign-free coordinates rolled to the front, G + 2C = R'R,
    R = [[R_ff, R_fc], [0, R_cc]] and d = R a - R^-T lin, the constrained
    block is NNLS(R_cc, d_c) and the free block solves
    R_ff z_f = d_f - R_fc z_c.
    """
    n, f = sub.anchor.size, sub.n_free
    order = np.roll(np.arange(n), f)
    h = sub.gram[np.ix_(order, order)] + 2.0 * np.diag(sub.shift[order])
    r = scipy.linalg.cholesky(h)
    rhs = r @ np.roll(sub.anchor, f) - scipy.linalg.solve_triangular(
        r, np.roll(model_gradient(sub)[0], f), trans="T")
    z = np.empty(n)
    z[f:] = scipy.optimize.nnls(r[f:, f:], rhs[f:])[0]
    if f:
        z[:f] = scipy.linalg.solve_triangular(r[:f, :f], rhs[:f] - r[:f, f:] @ z[f:])
    return np.roll(z, -f)


def wide_p2_subproblem(rng, n_free):
    """Problem-2 step on a wide dictionary of near-duplicate column pairs, shift 1e-9.

    12 rows; 12 unit columns, each with a twin perturbed by 1e-6, then
    ``n_free`` sign-free columns.  The gradient is that of least squares
    plus a positive penalty-like term at a sparse non-negative anchor, as
    in the outer loop.
    """
    m, half = 12, 12
    base = rng.normal(size=(m, half))
    twins = base + 1e-6 * rng.normal(size=(m, half))
    a = np.hstack([np.column_stack([base, twins]), rng.normal(size=(m, n_free))])
    a /= np.linalg.norm(a, axis=0)
    n = a.shape[1]
    x_true = np.zeros(n)
    x_true[rng.choice(2 * half, 3, replace=False)] = rng.uniform(0.5, 1.5, 3)
    b = a @ x_true + 0.01 * rng.normal(size=m)
    anchor = np.where(rng.uniform(size=n) < 0.3, rng.uniform(0.0, 1.0, n), 0.0)
    anchor[2 * half:] = rng.normal(size=n_free)
    lin = a.T @ (a @ anchor - b)
    lin[:2 * half] += 0.05 * rng.uniform(0.0, 1.0, 2 * half)
    return subproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=np.full(n, 1e-9),
                      n_free=n_free)


def sparse_p2_subproblem(rng, n_free=0):
    """Problem-2 step whose minimiser is sparse: 30 rows, 3 of 40 columns planted, shift 1e-6.

    ``n_free`` sign-free columns follow the 40.  The gradient is that of
    least squares plus a weighted l1 term at an anchor near the planted
    point, as late in the outer loop.
    """
    a = rng.normal(size=(30, 40 + n_free))
    a /= np.linalg.norm(a, axis=0)
    x_true = np.zeros(40 + n_free)
    x_true[rng.choice(40, 3, replace=False)] = rng.uniform(0.5, 1.5, 3)
    x_true[40:] = rng.normal(size=n_free)
    b = a @ x_true + 0.01 * rng.normal(size=30)
    anchor = x_true + 0.05 * rng.normal(size=x_true.size) * (x_true != 0)
    anchor[:40] = np.maximum(anchor[:40], 0.0)
    lin = a.T @ (a @ anchor - b)
    lin[:40] += 0.05
    return subproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=np.full(x_true.size, 1e-6),
                      n_free=n_free)


def random_p1_subproblem(rng):
    """Well-conditioned grouped model with dummies, M <= 3, N <= 11."""
    m = int(rng.integers(1, 4))
    sizes = rng.integers(1, 4, m)
    n_free = int(rng.integers(0, 3))
    n = int(sizes.sum()) + n_free
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    a = rng.normal(size=(n + 4, n))
    gram = a.T @ a + float(rng.uniform(0.5, 1.5)) * np.eye(n)
    return subproblem(gram=gram, lin=rng.normal(size=n),
                      anchor=0.5 * rng.normal(size=n),
                      shift=rng.uniform(0.05, 0.5, n), n_free=n_free,
                      offsets=offsets, eps=rng.uniform(0.02, 0.2, m),
                      anchor_d=rng.uniform(0.0, 0.3, m),
                      lin_d=0.5 * rng.normal(size=m),
                      shift_d=rng.uniform(0.1, 0.6, m),
                      budget=float(m - rng.uniform(0.0, 1.0)))


def slsqp_p1(sub):
    """The grouped model by SLSQP, started from the anchor (feasible by construction).

    Bounds keep x's grouped prefix and d non-negative; the group floors
    and the budget are one block of linear inequality rows.
    """
    n, m = sub.anchor.size, sub.eps.size
    c = n - sub.n_free
    rows = np.zeros((m + 1, n + m))
    for j in range(m):
        rows[j, int(sub.offsets[j]):int(sub.offsets[j + 1])] = 1.0
        rows[j, n + j] = 1.0
    rows[m, n:] = -1.0 / sub.eps
    rhs = np.append(sub.eps, -sub.budget)

    def fun(z):
        return quad_value(sub, z[:n], z[n:])

    def jac(z):
        return np.concatenate([_grad_x(sub, z[:n]), _grad_d(sub, z[n:])])

    res = scipy.optimize.minimize(
        fun, np.concatenate([sub.anchor, sub.anchor_d]), jac=jac, method="SLSQP",
        bounds=[(0.0, None)] * c + [(None, None)] * sub.n_free + [(0.0, None)] * m,
        constraints=[{"type": "ineq", "fun": lambda z: rows @ z - rhs,
                      "jac": lambda z: rows}],
        options={"maxiter": 1000, "ftol": 1e-16})
    return res.x[:n], res.x[n:]


def _hoyer_grad(v):
    """Gradient of |v|_1 / |v|_2 at a non-negative, nonzero v."""
    n1, n2 = float(np.sum(v)), float(np.linalg.norm(v))
    return 1.0 / n2 - n1 * v / n2 ** 3


def one_material_p1_subproblem(rng, n_free, singleton=False):
    """Problem-1 step at a one-material pixel: degenerate and ill-conditioned.

    m groups of near-duplicate variants (or, with ``singleton``, the
    hsi-inter layout of six one-column groups under an inter-group weight),
    budget m - 1 and shift = shift_d in 1e-9..1e-6.  The anchor has one
    non-empty group, whose dummy is 0, and every other dummy at its floor,
    so the floors of the empty groups and the budget are linearly
    dependent.  The linear term is the least-squares gradient plus the
    Hoyer-ratio gradients at the anchor, as in the outer loop.
    """
    rows = 24
    if singleton:
        m, sizes = 6, np.ones(6, dtype=np.int64)
    else:
        m = int(rng.integers(2, 6))
        sizes = rng.integers(2, 6, m)
    cols = []
    for size in sizes:
        base = np.abs(rng.normal(size=rows)) + 0.5
        cols += [base * (1.0 + 0.01 * rng.normal(size=rows)) for _ in range(size)]
    a = np.column_stack(cols + [rng.normal(size=rows) for _ in range(n_free)])
    a /= np.linalg.norm(a, axis=0)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    c, n = int(offsets[-1]), a.shape[1]
    eps = np.full(m, 0.01)
    k = int(rng.integers(m))
    anchor = np.zeros(n)
    anchor[int(offsets[k]) + int(rng.integers(sizes[k]))] = rng.uniform(0.5, 1.5)
    anchor[c:] = rng.normal(size=n_free)
    anchor_d = eps.copy()
    anchor_d[k] = 0.0
    truth = anchor.copy()
    truth[:c] *= rng.uniform(0.9, 1.1)
    b = a @ truth + 0.005 * rng.normal(size=rows)
    lin = a.T @ (a @ anchor - b)
    lin_d = np.zeros(m)
    gamma = 10.0 ** rng.uniform(-4.0, -2.0)
    for j in range(m):
        sl = slice(int(offsets[j]), int(offsets[j + 1]))
        g = _hoyer_grad(np.append(anchor[sl], anchor_d[j]))
        lin[sl] += gamma * g[:-1]
        lin_d[j] = gamma * g[-1]
    if singleton:
        lin[:c] += 0.01 * _hoyer_grad(anchor[:c])
    shift = 10.0 ** rng.uniform(-9.0, -6.0)
    return subproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=np.full(n, shift),
                      n_free=n_free, offsets=offsets, eps=eps, anchor_d=anchor_d,
                      lin_d=lin_d, shift_d=np.full(m, shift), budget=float(m - 1))


def slsqp_nonneg_l1(entries, b, gamma, x0=None):
    """min 1/2 ||Ax - b||^2 + gamma sum(x) over x >= 0 via SLSQP."""
    a = np.asarray(entries, float)
    b = np.asarray(b, float)
    n = a.shape[1]

    def fun(x):
        r = a @ x - b
        return 0.5 * float(r @ r) + gamma * float(np.sum(x))

    def jac(x):
        return a.T @ (a @ x - b) + gamma

    x0 = np.full(n, 0.1) if x0 is None else np.asarray(x0, float)
    res = scipy.optimize.minimize(fun, x0, jac=jac, method="SLSQP",
                                  bounds=[(0.0, None)] * n,
                                  options={"maxiter": 500, "ftol": 1e-14})
    return np.maximum(res.x, 0.0)


def slsqp_min_l1_ball(entries, b, tau, x0=None):
    """min sum(x) over {x >= 0, ||Ax - b|| <= tau} via SLSQP."""
    a = np.asarray(entries, float)
    b = np.asarray(b, float)
    n = a.shape[1]

    def con(x):
        r = a @ x - b
        return tau ** 2 - float(r @ r)

    def con_jac(x):
        return -2.0 * a.T @ (a @ x - b)

    x0 = np.linalg.lstsq(a, b, rcond=None)[0].clip(min=0.0) if x0 is None \
        else np.asarray(x0, float)
    res = scipy.optimize.minimize(
        lambda x: float(np.sum(x)), x0, jac=lambda x: np.ones(n), method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "ineq", "fun": con, "jac": con_jac}],
        options={"maxiter": 800, "ftol": 1e-14})
    return np.maximum(res.x, 0.0)
