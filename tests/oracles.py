"""Slow, independent reference implementations used to check the package.

The QP solvers are checked against plain projected gradient, with
Dykstra alternating projections supplying feasibility for the grouped
problem, and problem 2's step also against a Cholesky factor of the
whole model Hessian with scipy's NNLS on it, on models too
ill-conditioned for projected gradient; problem 1's step on degenerate,
ill-conditioned one-material models and the penalized and constrained l1
baselines are checked against scipy's SLSQP.  The objectives are
evaluated with dense products and one group at a time, each group's
penalty in closed form (:func:`diff`, :func:`hoyer`), and the outer
step's quadratic upper estimate is checked on them.  Nothing here
shares code with the package beyond reading its data containers; a
:class:`Model` lays its arrays out as the package's model solvers take
them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize


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


def diff(v, e):
    """The smoothed l1 - l2 penalty of v with radius e and its gradient, in closed form.

    It is sum(v) - |v|^2 / (2e) inside the ball |v| <= e and
    sum(v) - |v| + e/2 outside it.
    """
    n2 = float(np.sqrt(np.sum(v * v)))
    if n2 <= e:
        return float(np.sum(v)) - n2 * n2 / (2.0 * e), 1.0 - v / e
    return float(np.sum(v)) - n2 + e / 2.0, 1.0 - v / n2


def hoyer(v):
    """The Hoyer ratio sum(v) / |v| and its gradient 1 / |v| - sum(v) v / |v|^3."""
    n2 = float(np.sqrt(np.sum(v * v)))
    s = float(np.sum(v))
    return s / n2, 1.0 / n2 - s * v / n2 ** 3


def dense_objective_p2(dct, b, cfg, x):
    """Problem 2 at x: (fit, penalty, gradient), by dense products and a loop over groups.

    Each group's penalty is :func:`diff` with its radius; the inter-group
    term takes every grouped column, with radius min(eps).
    """
    fit, grad = _dense_fit(dct, b, x)
    penalty = 0.0
    for j in range(dct.n_groups):
        sl = slice(dct.offsets[j], dct.offsets[j + 1])
        value, g = diff(x[sl], cfg.eps[j])
        penalty += cfg.gamma[j] * value
        grad[sl] += cfg.gamma[j] * g
    if cfg.gamma0 > 0.0:
        value, g = diff(x, float(np.min(cfg.eps)))
        penalty += cfg.gamma0 * value
        grad += cfg.gamma0 * g
    return fit, penalty, grad


def dense_objective_p1(dct, b, cfg, x, d):
    """Problem 1 at (x, d): (fit, penalty, gradient in x, gradient in d), densely.

    Group j's penalty is the :func:`hoyer` ratio of (x_j, d_j); the
    inter-group term is that of x.
    """
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
        value, g = hoyer(x)
        penalty += cfg.gamma0 * value
        grad_x += cfg.gamma0 * g
    return fit, penalty, grad_x, grad_d


def check_descent_estimate(dct, b, cfg, at, to, lambda_r, lambda_big, problem="p2",
                           at_d=None, to_d=None):
    """Check the quadratic upper estimate used to justify the outer step.

    With lambda_r / lambda_big lower and upper eigenvalue bounds of the
    penalty Hessian between the points ``at`` and ``to`` (problem 1's
    with the dummies ``at_d`` and ``to_d``), the objective change is
    bounded by

        (lambda_big - lambda_r/2) |dz|^2 + |A dx|^2 / 2 + dz . grad F(at)

    where dz stacks the coefficient (and dummy) differences.  Any
    diagonal model shift cancels from the two sides, so none is taken.
    The objectives are the dense ones above.
    """
    dx = to - at
    if problem == "p2":
        fit, penalty, grad = dense_objective_p2(dct, b, cfg, at)
        fy = sum(dense_objective_p2(dct, b, cfg, to)[:2])
        dz2 = float(dx @ dx)
        inner = float(grad @ dx)
    elif problem == "p1":
        fit, penalty, grad, grad_d = dense_objective_p1(dct, b, cfg, at, at_d)
        fy = sum(dense_objective_p1(dct, b, cfg, to, to_d)[:2])
        dd = to_d - at_d
        dz2 = float(dx @ dx + dd @ dd)
        inner = float(grad @ dx) + float(grad_d @ dd)
    else:
        raise ValueError(f"problem must be 'p1' or 'p2', got {problem!r}")
    a_dx = dct.entries @ dx
    rhs = (lambda_big - 0.5 * lambda_r) * dz2 + 0.5 * float(a_dx @ a_dx) + inner
    lhs = fy - (fit + penalty)
    return lhs <= rhs + 1e-10 * (1.0 + abs(lhs))


@dataclass
class Model:
    """One step's model in standard form: z'(G + 2cI)z / 2 - q'z.

    ``gram`` is G, ``shift`` the scalar c and ``q`` the linear term
    (G + 2cI) a - grad at the ``anchor`` a.  Problem 1's models add the
    group ``offsets`` and ``eps`` floors, the dummies' ``anchor_d`` and
    term ``q_d`` = 2c a_d - grad_d, and the ``budget``.
    """

    gram: np.ndarray
    shift: float
    q: np.ndarray
    anchor: np.ndarray
    offsets: Optional[np.ndarray] = None
    eps: Optional[np.ndarray] = None
    anchor_d: Optional[np.ndarray] = None
    q_d: Optional[np.ndarray] = None
    budget: float = 0.0

    def p2_args(self):
        """The arguments of ``solve_qp_p2``, started from the anchor's support."""
        return self.gram, 2.0 * self.shift, self.q, self.anchor > 0.0

    def p1_args(self):
        """The arguments of ``solve_qp_p1``."""
        return self.gram, 2.0 * self.shift, self.q, self.offsets, self.eps, self.q_d, self.budget


def subproblem(gram, lin, anchor, shift, lin_d=None, **grouped):
    """A :class:`Model` from the model's gradient ``lin`` (and ``lin_d``) at the anchor.

    The package takes the model in standard form, z'(G + 2cI)z / 2 - q'z,
    whose linear term is q = (G + 2cI) a - lin, and q_d = 2c a_d - lin_d
    for the dummies.
    """
    q = gram @ anchor + 2.0 * shift * anchor - lin
    if lin_d is not None:
        grouped["q_d"] = 2.0 * shift * grouped["anchor_d"] - lin_d
    return Model(gram=gram, shift=shift, q=q, anchor=anchor, **grouped)


def model_gradient(sub):
    """The model's gradient at the anchor, (lin, lin_d), from its standard form."""
    lin = sub.gram @ sub.anchor + 2.0 * sub.shift * sub.anchor - sub.q
    if sub.anchor_d is None:
        return lin, None
    return lin, 2.0 * sub.shift * sub.anchor_d - sub.q_d


def quad_value(sub, x, d=None, lin=None, lin_d=None):
    """The quadratic model: 1/2 dx'G dx + c dx'dx + lin'dx (+ dummy part).

    ``lin`` and ``lin_d``, the gradient at the anchor, default to the
    subproblem's own (:func:`model_gradient`).
    """
    if lin is None:
        lin, lin_d = model_gradient(sub)
    dx = np.asarray(x, float) - sub.anchor
    val = 0.5 * float(dx @ sub.gram @ dx) + sub.shift * float(dx @ dx) + float(lin @ dx)
    if d is not None and sub.anchor_d is not None:
        dd = np.asarray(d, float) - sub.anchor_d
        val += sub.shift * float(dd @ dd) + float(lin_d @ dd)
    return val


def _grad_x(sub, x):
    dx = x - sub.anchor
    return sub.gram @ dx + 2.0 * sub.shift * dx + model_gradient(sub)[0]


def _grad_d(sub, d):
    return 2.0 * sub.shift * (d - sub.anchor_d) + model_gradient(sub)[1]


def pg_p2(sub, max_iters=30000, tol=1e-14):
    """Long-run projected gradient on the orthant-constrained model."""
    lip = float(np.linalg.eigvalsh(sub.gram + 2.0 * sub.shift * np.eye(sub.anchor.size))[-1])
    step = 1.0 / lip
    x = np.maximum(sub.anchor.astype(float), 0.0)
    for _ in range(max_iters):
        y = np.maximum(x - step * _grad_x(sub, x), 0.0)
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

    Alternates between the product set {x >= 0} x {dummy budget}
    and the (coordinate-disjoint, hence exactly projectable) per-group
    half-spaces sum(x_j) + d_j >= eps_j.  Stops when the two partial
    projections agree; the iterate alone can stall for many sweeps while
    the dual corrections build up, so its movement is no certificate.
    """
    nx = x0.size
    m = sub.eps.size
    groups = [list(range(int(sub.offsets[j]), int(sub.offsets[j + 1]))) + [nx + j]
              for j in range(m)]
    u = np.concatenate([x0, d0]).astype(float)
    p = np.zeros_like(u)
    q = np.zeros_like(u)
    for _ in range(sweeps):
        y = u + p
        z = y.copy()
        z[:nx] = np.maximum(z[:nx], 0.0)
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
    hessian = sub.gram + 2.0 * sub.shift * np.eye(sub.anchor.size)
    lip = max(float(np.linalg.eigvalsh(hessian)[-1]), 1e-12)
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
    a = rng.normal(size=(n + 4, n))
    gram = a.T @ a + float(rng.uniform(0.5, 1.5)) * np.eye(n)
    return subproblem(gram=gram, lin=rng.normal(size=n), anchor=0.5 * rng.normal(size=n),
                      shift=float(rng.uniform(0.05, 0.5)))


def cholesky_nnls_p2(sub):
    """Problem 2's step by a Cholesky factor of the whole model Hessian and scipy's NNLS.

    With G + 2C = R'R and d = R a - R^-T lin, the step is NNLS(R, d).
    """
    r = scipy.linalg.cholesky(sub.gram + 2.0 * sub.shift * np.eye(sub.anchor.size))
    rhs = r @ sub.anchor - scipy.linalg.solve_triangular(r, model_gradient(sub)[0], trans="T")
    return scipy.optimize.nnls(r, rhs)[0]


def wide_p2_subproblem(rng):
    """Problem-2 step on a wide dictionary of near-duplicate column pairs, shift 1e-9.

    12 rows; 12 unit columns, each with a twin perturbed by 1e-6.  The
    gradient is that of least squares plus a positive penalty-like term
    at a sparse non-negative anchor, as in the outer loop.
    """
    m, half = 12, 12
    base = rng.normal(size=(m, half))
    twins = base + 1e-6 * rng.normal(size=(m, half))
    a = np.column_stack([base, twins])
    a /= np.linalg.norm(a, axis=0)
    n = a.shape[1]
    x_true = np.zeros(n)
    x_true[rng.choice(n, 3, replace=False)] = rng.uniform(0.5, 1.5, 3)
    b = a @ x_true + 0.01 * rng.normal(size=m)
    anchor = np.where(rng.uniform(size=n) < 0.3, rng.uniform(0.0, 1.0, n), 0.0)
    lin = a.T @ (a @ anchor - b) + 0.05 * rng.uniform(0.0, 1.0, n)
    return subproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=1e-9)


def sparse_p2_subproblem(rng):
    """Problem-2 step whose minimiser is sparse: 30 rows, 3 of 40 columns planted, shift 1e-6.

    The gradient is that of least squares plus a weighted l1 term at an
    anchor near the planted point, as late in the outer loop.
    """
    a = rng.normal(size=(30, 40))
    a /= np.linalg.norm(a, axis=0)
    x_true = np.zeros(40)
    x_true[rng.choice(40, 3, replace=False)] = rng.uniform(0.5, 1.5, 3)
    b = a @ x_true + 0.01 * rng.normal(size=30)
    anchor = np.maximum(x_true + 0.05 * rng.normal(size=40) * (x_true != 0), 0.0)
    lin = a.T @ (a @ anchor - b) + 0.05
    return subproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=1e-6)


def random_p1_subproblem(rng):
    """Well-conditioned grouped model with dummies, M <= 3, N <= 11."""
    m = int(rng.integers(1, 4))
    sizes = rng.integers(1, 4, m)
    n = int(sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    a = rng.normal(size=(n + 4, n))
    gram = a.T @ a + float(rng.uniform(0.5, 1.5)) * np.eye(n)
    return subproblem(gram=gram, lin=rng.normal(size=n),
                      anchor=0.5 * rng.normal(size=n),
                      shift=float(rng.uniform(0.05, 0.5)),
                      offsets=offsets, eps=rng.uniform(0.02, 0.2, m),
                      anchor_d=rng.uniform(0.0, 0.3, m),
                      lin_d=0.5 * rng.normal(size=m),
                      budget=float(m - rng.uniform(0.0, 1.0)))


def slsqp_p1(sub):
    """The grouped model by SLSQP, started from the anchor (feasible by construction).

    Bounds keep x and d non-negative; the group floors and the budget
    are one block of linear inequality rows.
    """
    n, m = sub.anchor.size, sub.eps.size
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
        bounds=[(0.0, None)] * (n + m),
        constraints=[{"type": "ineq", "fun": lambda z: rows @ z - rhs,
                      "jac": lambda z: rows}],
        options={"maxiter": 1000, "ftol": 1e-16})
    return res.x[:n], res.x[n:]


def one_material_p1_subproblem(rng, singleton=False):
    """Problem-1 step at a one-material pixel: degenerate and ill-conditioned.

    m groups of near-duplicate variants (or, with ``singleton``, the
    hsi-inter layout of six one-column groups under an inter-group weight),
    budget m - 1 and shift in 1e-9..1e-6.  The anchor has one
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
    a = np.column_stack(cols)
    a /= np.linalg.norm(a, axis=0)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    n = a.shape[1]
    eps = np.full(m, 0.01)
    k = int(rng.integers(m))
    anchor = np.zeros(n)
    anchor[int(offsets[k]) + int(rng.integers(sizes[k]))] = rng.uniform(0.5, 1.5)
    anchor_d = eps.copy()
    anchor_d[k] = 0.0
    truth = anchor * rng.uniform(0.9, 1.1)
    b = a @ truth + 0.005 * rng.normal(size=rows)
    lin = a.T @ (a @ anchor - b)
    lin_d = np.zeros(m)
    gamma = 10.0 ** rng.uniform(-4.0, -2.0)
    for j in range(m):
        sl = slice(int(offsets[j]), int(offsets[j + 1]))
        g = hoyer(np.append(anchor[sl], anchor_d[j]))[1]
        lin[sl] += gamma * g[:-1]
        lin_d[j] = gamma * g[-1]
    if singleton:
        lin += 0.01 * hoyer(anchor)[1]
    shift = 10.0 ** rng.uniform(-9.0, -6.0)
    return subproblem(gram=a.T @ a, lin=lin, anchor=anchor, shift=shift,
                      offsets=offsets, eps=eps, anchor_d=anchor_d,
                      lin_d=lin_d, budget=float(m - 1))


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
