"""Reference methods: NNLS, constrained/penalized l1, and l0 penalty decomposition.

These are the comparison points for the structured solvers: plain
non-negative least squares (scipy's active-set solver), the penalized
l1 problem ``min 0.5 |Ax - b|^2 + gamma |x|_1  s.t.  x >= 0``, solved
exactly by problem 2's active set on the cached Gram matrix, the
constrained form ``min |x|_1  s.t.  x >= 0, |Ax - b| <= tau``, solved
exactly by one walk down the non-negative lasso path on that matrix
(Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000; Efron, Hastie,
Johnstone & Tibshirani, Ann. Statist. 2004), and a penalty
decomposition scheme for the exact per-group l0 constraint.
The l1 baselines take no settings; their only constant is the ridge
``L1_SHIFT``.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import GroupedDictionary, SparsityConfig, as_data_vector
from .errors import ConfigError, NonConvergenceError
from . import qp


def nnls(entries: np.ndarray, b: np.ndarray, maxiter: Optional[int] = None) -> np.ndarray:
    """Non-negative least squares ``min |Ax - b|  s.t.  x >= 0``."""
    entries = np.asarray(entries, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if entries.ndim != 2 or entries.shape[0] != b.size:
        raise ValueError(f"incompatible shapes {entries.shape} and ({b.size},)")
    import scipy.optimize  # on first use: loading it slows every import of ssnnls
    try:
        x, _ = scipy.optimize.nnls(entries, b, maxiter=maxiter)
    except RuntimeError as exc:
        if "Maximum number of iterations" not in str(exc):
            raise
        raise NonConvergenceError(f"nnls: {exc}", iterations=maxiter) from exc
    return x


# Ridge that keeps the l1 baselines' active blocks of the Gram matrix G
# positive definite on rank-deficient dictionaries: L1_SHIFT times G's
# mean eigenvalue, trace(G)/n, is added to their diagonal.
L1_SHIFT = 1e-10


def l1_weight(value: float, name: str, positive: bool = False) -> float:
    """``value`` as a float; ``ValueError`` unless finite and >= 0 (> 0 if ``positive``)."""
    value = float(value)
    if not np.isfinite(value) or value < 0 or (positive and value == 0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return value


def l1_penalized(dct: GroupedDictionary, b: np.ndarray, gamma: float) -> np.ndarray:
    """Penalized form ``min 0.5 |Ax - b|^2 + gamma |x|_1  s.t.  x >= 0``.

    On the orthant |x|_1 = 1'x, so this is the strictly convex QP
    ``0.5 x'Gx - (A'b - gamma 1)'x`` over x >= 0 (G plus the ``L1_SHIFT``
    ridge): problem 2's model, solved exactly by its active set
    (:func:`ssnnls.qp.solve_qp_p2`) on the dictionary's cached Gram
    matrix ``dct.gram``.  The groups play no part.
    """
    b = as_data_vector(b, dct.n_rows)
    gamma = l1_weight(gamma, "gamma")
    n = dct.n_columns
    ridge = L1_SHIFT * float(np.trace(dct.gram)) / n
    return qp.solve_qp_p2(dct.gram, ridge, dct.entries.T @ b - gamma,
                          np.zeros(n, dtype=bool))[0]


def l1_bregman(dct: GroupedDictionary, b: np.ndarray, tau: float) -> np.ndarray:
    """Constrained l1 recovery ``min |x|_1  s.t.  x >= 0, |Ax - b| <= tau``.

    A minimiser of the penalized problem (:func:`l1_penalized`) whose
    residual equals tau minimises |x|_1 over the whole tau-ball, and the
    residual grows with the weight, from the NNLS residual at 0 to |b| at
    max(A'b).  So this walks the penalized problem's solution path, the
    non-negative lasso path (Osborne, Presnell & Turlach, IMA J. Numer.
    Anal. 2000), down from gamma = max(A'b) with x = 0, on the cached
    Gram matrix.  On the active set S the minimiser is x_S = u - gamma v,
    (G_SS + ridge)[u v] = [A'b_S 1], and 0 elsewhere.  Inactive column j
    enters where its correlation reaches gamma, at
    (A'b_j - (Gu)_j) / (1 - (Gv)_j); active entry i leaves where it
    reaches 0, at u_i / v_i.  The walk stops in the segment where the
    residual reaches tau: |A x - b|^2 = tau^2 is a scalar quadratic in
    gamma there, solved exactly.  Raises :class:`NonConvergenceError`
    when even NNLS, the path's end at gamma = 0, leaves a residual above
    tau, and after ``qp.ACTIVE_SET_ITERS_PER_COLUMN * n`` breakpoints.
    """
    entries, gram = dct.entries, dct.gram
    b = as_data_vector(b, dct.n_rows)
    tau = l1_weight(tau, "tau", positive=True)
    resid = float(np.linalg.norm(b))
    x = np.zeros(dct.n_columns)
    if resid <= tau:
        return x
    atb = entries.T @ b
    n = atb.size
    ridge = L1_SHIFT * float(np.trace(gram)) / n
    rhs = np.column_stack([atb, np.ones(n)])
    active = np.zeros(n, dtype=bool)
    active[np.argmax(atb)] = True
    lo = float(np.max(atb))
    cap = qp.ACTIVE_SET_ITERS_PER_COLUMN * n
    rounding = 10.0 * n * np.finfo(float).eps
    left, breakpoints = [], 0
    while lo > 0.0:
        if breakpoints == cap:
            raise NonConvergenceError(f"l1 path did not reach gamma = 0 in {cap} breakpoints",
                                      iterations=cap)
        breakpoints += 1
        hi = lo
        idx = np.flatnonzero(active)
        sol = qp._solve_passive(gram, ridge, rhs, idx)
        u, v = sol.T
        gu, gv = sol.T @ gram[idx]
        # a twin of the active columns, its entry rate 1 - (Gv)_j within
        # rounding of 0, cannot enter (with the ridge that rate is about
        # L1_SHIFT trace(G)/n times its v: rounding only where twins carry
        # most of trace(G), as one pair of norm 1e3 among 398 unit columns)
        rate = 1.0 - gv
        enter = ~active & (rate > rounding * (1.0 + np.abs(gv)))
        breaks = np.divide(atb - gu, rate, out=np.full(n, -np.inf), where=enter)
        # a tie, or an entry rounding put past its break, is met at once;
        # the column that just left stays out for this segment
        np.minimum(breaks, hi, out=breaks)
        breaks[left] = -np.inf
        leave = v < 0
        breaks[idx[leave]] = np.minimum(u[leave] / v[leave], hi)
        j = int(np.argmax(breaks))
        lo = max(float(breaks[j]), 0.0)
        p, q = entries[:, idx] @ u - b, entries[:, idx] @ v
        pp, pq, qq = float(p @ p), float(p @ q), float(q @ q)
        resid = float(np.sqrt(max(pp - 2.0 * lo * pq + lo * lo * qq, 0.0)))
        if resid <= tau:
            # |p - gamma q| = tau at the larger root, which lies in [lo, hi]
            root = (pq + np.sqrt(max(pq * pq - qq * (pp - tau * tau), 0.0))) / qq \
                if qq > 0 else lo
            x[idx] = np.maximum(u - min(max(root, lo), hi) * v, 0.0)
            return x
        left = [j] if active[j] else []
        active[j] = not active[j]
    raise NonConvergenceError(
        f"NNLS residual {resid:.6e} exceeds tau={tau:.6e}: no non-negative "
        "point reaches the tau-ball", residuals=resid)


# Penalty decomposition constants: an inner pass alternates at most
# PD_MAX_INNER (x, y) updates and stops once neither moves more than
# PD_TOL_INNER; the run fails after PD_MAX_OUTER penalty increases or once
# the penalty passes PD_RHO_CAP.
PD_TOL_INNER = 1e-4
PD_MAX_INNER = 200
PD_MAX_OUTER = 2000
PD_RHO_CAP = 1e16
# the named starts of penalty_decomposition_l0, beside an explicit vector
PD_STARTS = ("zero", "nnls", "lstsq")


@dataclass
class PdParams:
    """Penalty decomposition settings: initial penalty, growth, tolerance.

    The inner-pass and cap constants are ``PD_TOL_INNER``,
    ``PD_MAX_INNER``, ``PD_MAX_OUTER`` and ``PD_RHO_CAP``.
    """

    rho0: float = 0.05
    growth: float = 1.2
    tol_outer: float = 1e-5

    def __post_init__(self):
        for name, floor in (("rho0", 0), ("growth", 1), ("tol_outer", 0)):
            if not floor < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and exceed {floor}, "
                                  f"got {getattr(self, name)}")


def penalty_decomposition_l0(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                             params: Optional[PdParams] = None,
                             init: Union[str, np.ndarray] = "zero") -> np.ndarray:
    """At most one active column per group, by penalty decomposition.

    Alternates a ridge-regularised least-squares step in x with an exact
    projection of y onto the per-group constraint (keep the largest entry
    of each group, clipped to be non-negative; ties take the lowest
    index), increasing the coupling penalty rho geometrically until x and
    y agree to ``tol_outer``.  Returns the structured side y, which
    satisfies the group constraint exactly.

    ``init`` selects the starting y: a name in ``PD_STARTS``, matched
    exactly ("zero", "nnls", or "lstsq" for minimum-norm least squares), or
    an explicit vector.
    """
    params = params or PdParams()
    cfg.validate(dct.n_groups)
    b = as_data_vector(b, dct.n_rows)
    entries = dct.entries
    n = dct.n_columns

    if isinstance(init, str):
        if init not in PD_STARTS:
            raise ConfigError(f"unknown init {init!r}; choose from {PD_STARTS}")
        if init == "zero":
            y = np.zeros(n)
        elif init == "nnls":
            y = nnls(entries, b)
        else:
            y = np.linalg.lstsq(entries, b, rcond=None)[0]
    else:
        y = np.asarray(init, dtype=float).ravel()
        if y.shape != (n,):
            raise ValueError(f"init vector must have shape ({n},), got {y.shape}")
        y = y.copy()

    # one symmetric eigendecomposition serves every rho
    evals, evecs = np.linalg.eigh(dct.gram)
    atb = entries.T @ b
    qtb = evecs.T @ atb

    rho = params.rho0
    x = y.copy()
    for _ in range(PD_MAX_OUTER):
        for _ in range(PD_MAX_INNER):
            x_new = evecs @ ((qtb + rho * (evecs.T @ y)) / (evals + rho))
            y_new = x_new.copy()
            for j in range(dct.n_groups):
                sl = dct.group_slice(j)
                seg = x_new[sl]
                best = int(np.argmax(seg))
                y_new[sl] = 0.0
                y_new[sl][best] = max(float(seg[best]), 0.0)
            moved = max(float(np.max(np.abs(x_new - x))), float(np.max(np.abs(y_new - y))))
            x, y = x_new, y_new
            if moved <= PD_TOL_INNER:
                break
        if float(np.max(np.abs(x - y))) <= params.tol_outer:
            return y
        rho *= params.growth
        if rho > PD_RHO_CAP:
            raise NonConvergenceError(
                f"penalty grew past {PD_RHO_CAP:.1e} with x-y gap "
                f"{float(np.max(np.abs(x - y))):.3e}",
                residuals=float(np.max(np.abs(x - y))))
    raise NonConvergenceError("penalty decomposition hit the outer iteration cap",
                              iterations=PD_MAX_OUTER)
