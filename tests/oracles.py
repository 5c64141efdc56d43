"""Slow, independent reference implementations used to check the package.

Projections are solved by support enumeration (exact KKT solve per active
set, feasible candidate with minimal distance wins); the QP solvers are
checked against plain projected gradient, with Dykstra alternating
projections supplying feasibility for the grouped problem, and problem
2's step also against a Cholesky factor of the whole model Hessian with
scipy's NNLS on it, on models too ill-conditioned for projected
gradient; problem 1's step on degenerate, ill-conditioned one-material
models and the penalized and constrained l1 baselines are checked
against scipy's SLSQP.  Nothing
here shares code with the package beyond reading its data containers.
"""

import itertools

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


def project_weighted_simplex(v, weights, radius, mode):
    """Projection onto {y >= 0, sum(w y) (=, <=, >=) radius} by enumeration.

    For each candidate support the equality-constrained projection is
    closed-form (y_i = v_i - theta w_i); the optimum must appear among the
    feasible candidates, so the one at minimal distance is the projection.
    """
    v = np.asarray(v, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    radius = float(radius)
    clipped = np.maximum(v, 0.0)
    total = float(w @ clipped)
    if mode == "le" and total <= radius + 1e-15:
        return clipped
    if mode == "ge" and total >= radius - 1e-15:
        return clipped
    # constraint active: search the boundary sum(w y) = radius
    best = None
    best_dist = np.inf
    if radius == 0.0:
        best = np.zeros_like(v)
        best_dist = float(np.sum(v ** 2))
    for size in range(1, v.size + 1):
        for sup in itertools.combinations(range(v.size), size):
            sup = list(sup)
            ws = w[sup]
            theta = (ws @ v[sup] - radius) / (ws @ ws)
            y_sup = v[sup] - theta * ws
            if np.min(y_sup) < -1e-12:
                continue
            y = np.zeros_like(v)
            y[sup] = np.maximum(y_sup, 0.0)
            dist = float(np.sum((y - v) ** 2))
            if dist < best_dist:
                best, best_dist = y, dist
    if best is None:
        raise AssertionError("no feasible candidate; bad instance")
    return best


def project_group_floor_ref(v, eps):
    """Projection onto {y >= 0, sum(y) >= eps}."""
    v = np.asarray(v, dtype=float).ravel()
    return project_weighted_simplex(v, np.ones_like(v), float(eps), "ge")


def project_budget_ref(v, eps, budget, metric_diag=None):
    """Projection onto {d >= 0, sum(d/eps) <= budget} in a diagonal metric.

    Minimizes sum(m_i (d_i - v_i)^2) directly: on a support S with the
    budget active, stationarity gives d_i = v_i - theta / (m_i eps_i) with
    theta fixed by the budget equation over S.
    """
    v = np.asarray(v, dtype=float).ravel()
    eps = np.asarray(eps, dtype=float).ravel()
    m = np.ones_like(v) if metric_diag is None else np.asarray(metric_diag, float).ravel()
    budget = float(budget)
    if budget <= 0.0:
        return np.zeros_like(v)
    clipped = np.maximum(v, 0.0)
    if float(np.sum(clipped / eps)) <= budget + 1e-15:
        return clipped
    best = None
    best_dist = np.inf
    for size in range(1, v.size + 1):
        for sup in itertools.combinations(range(v.size), size):
            sup = list(sup)
            denom = float(np.sum(1.0 / (m[sup] * eps[sup] ** 2)))
            theta = (float(np.sum(v[sup] / eps[sup])) - budget) / denom
            d_sup = v[sup] - theta / (m[sup] * eps[sup])
            if np.min(d_sup) < -1e-12 or theta < -1e-12:
                continue
            d = np.zeros_like(v)
            d[sup] = np.maximum(d_sup, 0.0)
            dist = float(np.sum(m * (d - v) ** 2))
            if dist < best_dist:
                best, best_dist = d, dist
    if best is None:
        best = np.zeros_like(v)
    return best


def quad_value(sub, x, d=None):
    """The quadratic model: 1/2 dx'G dx + dx'diag(shift)dx + lin'dx (+ dummy part)."""
    dx = np.asarray(x, float) - sub.anchor
    val = 0.5 * float(dx @ sub.gram @ dx) + float(sub.shift @ dx ** 2) + float(sub.lin @ dx)
    if d is not None and sub.anchor_d is not None:
        dd = np.asarray(d, float) - sub.anchor_d
        val += float(sub.shift_d @ dd ** 2) + float(sub.lin_d @ dd)
    return val


def _grad_x(sub, x):
    dx = x - sub.anchor
    return sub.gram @ dx + 2.0 * sub.shift * dx + sub.lin


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
        gd = 2.0 * sub.shift_d * (d - sub.anchor_d) + sub.lin_d
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
    return QpSubproblem(gram=gram, lin=rng.normal(size=n),
                        anchor=0.5 * rng.normal(size=n),
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
        r, np.roll(sub.lin, f), trans="T")
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
    return QpSubproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=np.full(n, 1e-9),
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
    return QpSubproblem(gram=gram, lin=rng.normal(size=n),
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
        return np.concatenate([_grad_x(sub, z[:n]),
                               2.0 * sub.shift_d * (z[n:] - sub.anchor_d) + sub.lin_d])

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
    return QpSubproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=np.full(n, shift),
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
