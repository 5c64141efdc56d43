"""Reference methods: NNLS, constrained/penalized l1, and l0 penalty decomposition.

These are the comparison points for the structured solvers: plain
non-negative least squares (scipy's active-set solver), the l1
minimisation ``min |x|_1  s.t.  x >= 0, |Ax - b| <= tau`` via Bregman
iteration with an accelerated proximal-gradient inner solve, its
penalized variant, and a penalty decomposition scheme for the exact
per-group l0 constraint.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.optimize

from .core import GroupedCoeffs, GroupedDictionary, SparsityConfig, as_data_vector
from .errors import ConfigError, NonConvergenceError


def nnls(entries: np.ndarray, b: np.ndarray, maxiter: Optional[int] = None) -> np.ndarray:
    """Non-negative least squares ``min |Ax - b|  s.t.  x >= 0``."""
    entries = np.asarray(entries, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if entries.ndim != 2 or entries.shape[0] != b.size:
        raise ValueError(f"incompatible shapes {entries.shape} and ({b.size},)")
    try:
        x, _ = scipy.optimize.nnls(entries, b, maxiter=maxiter)
    except RuntimeError as exc:
        if "Maximum number of iterations" not in str(exc):
            raise
        raise NonConvergenceError(f"nnls: {exc}", iterations=maxiter) from exc
    return x


def _fista_nonneg_l1(gram: np.ndarray, atb: np.ndarray, thresh: float, lip: float,
                     x0: np.ndarray, max_iters: int, tol: float) -> np.ndarray:
    """min thresh*|x|_1 + 0.5 x'Gx - x'atb over x >= 0, via accelerated prox gradient."""
    x = np.maximum(x0, 0.0)
    y = x.copy()
    t = 1.0
    step = 1.0 / lip
    for _ in range(max_iters):
        grad = gram @ y - atb
        x_new = np.maximum(y - step * grad - step * thresh, 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        moved = float(np.max(np.abs(x_new - x)))
        x, t = x_new, t_new
        if moved <= tol * max(1.0, float(np.max(np.abs(x)))):
            break
    return x


def l1_penalized(entries: np.ndarray, b: np.ndarray, gamma: float,
                 x0: Optional[np.ndarray] = None, max_iters: int = 20000,
                 tol: float = 1e-10) -> np.ndarray:
    """Penalized form ``min 0.5 |Ax - b|^2 + gamma |x|_1  s.t.  x >= 0``."""
    entries = np.asarray(entries, dtype=float)
    b = as_data_vector(b, entries.shape[0])
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    gram = entries.T @ entries
    lip = float(np.linalg.eigvalsh(gram)[-1])
    if lip <= 0:
        return np.zeros(entries.shape[1])
    x0 = np.zeros(entries.shape[1]) if x0 is None else np.asarray(x0, dtype=float)
    return _fista_nonneg_l1(gram, entries.T @ b, gamma, lip, x0, max_iters, tol)


def _sphere_interpolate(entries: np.ndarray, b: np.ndarray, tau: float,
                        x_out: np.ndarray, x_in: np.ndarray) -> np.ndarray:
    """Point on the segment [x_out, x_in] with ``|Ax - b| = tau`` exactly.

    ``x_out`` sits outside the tau-ball and ``x_in`` inside, so the scalar
    quadratic along the segment has a root in [0, 1]; degenerate brackets
    fall back to the inside point.
    """
    dx = x_in - x_out
    adx = entries @ dx
    a = float(adx @ adx)
    r_out = entries @ x_out - b
    e = float(r_out @ r_out) - tau * tau
    if a <= 0 or e <= 0:
        return x_in
    cc = float(r_out @ adx)
    disc = max(cc * cc - a * e, 0.0)
    theta = (-cc - np.sqrt(disc)) / a
    if not 0.0 <= theta <= 1.0:
        return x_in
    return x_out + theta * dx


def _pareto_refine(entries: np.ndarray, gram: np.ndarray, b: np.ndarray, tau: float,
                   gamma0: float, lip: float, x_warm: np.ndarray,
                   inner_iters: int, inner_tol: float) -> np.ndarray:
    """Solve the penalized problem at the weight whose residual equals tau.

    A minimiser of ``gamma |x|_1 + 0.5 |Ax - b|^2`` over the orthant with
    ``|Ax - b| = tau`` minimises ``|x|_1`` over the whole tau-ball, so a
    bisection on gamma (the residual is monotone in it) lands on the
    constrained solution; the final bracket is interpolated onto the
    sphere.
    """
    atb = entries.T @ b

    def solve(g, x0):
        x = _fista_nonneg_l1(gram, atb, g, lip, x0, inner_iters, inner_tol)
        return x, float(np.linalg.norm(entries @ x - b))

    gamma = max(gamma0, 1e-300)
    x, r = solve(gamma, x_warm)
    for _ in range(80):  # bracket the target residual
        if r >= tau:
            break
        gamma *= 2.0
        x, r = solve(gamma, x)
    if r < tau:
        return x
    out = (gamma, x)
    inside = None
    for _ in range(200):
        gamma *= 0.5
        x, r = solve(gamma, x)
        if r <= tau:
            inside = (gamma, x)
            break
        out = (gamma, x)
    if inside is None:
        return x
    for _ in range(60):
        if out[0] - inside[0] <= 1e-12 * out[0]:
            break
        gamma = 0.5 * (out[0] + inside[0])
        x, r = solve(gamma, inside[1])
        if r <= tau:
            inside = (gamma, x)
        else:
            out = (gamma, x)
    return _sphere_interpolate(entries, b, tau, out[1], inside[1])


def l1_bregman(entries: np.ndarray, b: np.ndarray, tau: float,
               mu: Optional[float] = None, max_outer: int = 500,
               inner_iters: int = 20000, inner_tol: float = 1e-11) -> np.ndarray:
    """Constrained l1 recovery ``min |x|_1  s.t.  x >= 0, |Ax - b| <= tau``.

    Bregman iteration: repeatedly solve
    ``min |x|_1 + mu/2 |Ax - b_k|^2`` over the orthant and add the data
    misfit back into ``b_k``.  Residuals against the original data
    decrease across outer iterations; the step that crosses into the
    tau-ball hands the iterate to a penalty-weight bisection that places
    the residual exactly on the sphere, where the penalized minimiser is
    also the constrained one.
    """
    entries = np.asarray(entries, dtype=float)
    b = as_data_vector(b, entries.shape[0])
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if np.linalg.norm(b) <= tau:
        return np.zeros(entries.shape[1])
    if mu is None:
        mu = 10.0 / tau
    gram = entries.T @ entries
    lip = mu * float(np.linalg.eigvalsh(gram)[-1])
    if lip <= 0:
        raise ValueError("dictionary is identically zero")

    x = np.zeros(entries.shape[1])
    bk = b.copy()
    resid_trace = []
    for _ in range(max_outer):
        x = _fista_nonneg_l1(mu * gram, mu * (entries.T @ bk), 1.0, lip, x, inner_iters, inner_tol)
        rnorm = float(np.linalg.norm(entries @ x - b))
        resid_trace.append(rnorm)
        if rnorm <= tau:
            return _pareto_refine(entries, gram, b, tau, 1.0 / mu, lip / mu, x,
                                  inner_iters, inner_tol)
        bk = bk + (b - entries @ x)
    raise NonConvergenceError(
        f"residual {resid_trace[-1]:.3e} did not reach tau={tau:.3e} "
        f"in {max_outer} outer iterations",
        iterations=max_outer, residuals=resid_trace[-1], trace=resid_trace)


# Penalty decomposition constants: an inner pass alternates at most
# PD_MAX_INNER (x, y) updates and stops once neither moves more than
# PD_TOL_INNER; the run fails after PD_MAX_OUTER penalty increases or once
# the penalty passes PD_RHO_CAP.
PD_TOL_INNER = 1e-4
PD_MAX_INNER = 200
PD_MAX_OUTER = 2000
PD_RHO_CAP = 1e16


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
        if self.rho0 <= 0:
            raise ConfigError(f"initial penalty must be positive, got {self.rho0}")
        if self.growth <= 1:
            raise ConfigError(f"penalty growth factor must exceed 1, got {self.growth}")
        if self.tol_outer <= 0:
            raise ConfigError(f"outer tolerance must be positive, got {self.tol_outer}")


def penalty_decomposition_l0(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                             params: Optional[PdParams] = None,
                             init: Union[str, np.ndarray] = "zero") -> GroupedCoeffs:
    """At most one active column per group, by penalty decomposition.

    Alternates a ridge-regularised least-squares step in x with an exact
    projection of y onto the per-group constraint (keep the largest entry
    of each group, clipped to be non-negative; ties take the lowest
    index), increasing the coupling penalty rho geometrically until x and
    y agree to ``tol_outer``.  Free groups are copied, not thresholded.
    Returns the structured side y, which satisfies the group constraint
    exactly.

    ``init`` selects the starting y: "zero", "nnls", "lstsq" (minimum-norm
    least squares), or an explicit vector.
    """
    params = params or PdParams()
    cfg.validate(dct.n_groups)
    b = as_data_vector(b, dct.n_rows)
    entries = dct.entries
    n = dct.n_columns
    n_con = cfg.n_constrained(dct.n_groups)

    if isinstance(init, str):
        kind = init.lower()
        if kind == "zero":
            y = np.zeros(n)
        elif kind == "nnls":
            if cfg.free_groups:
                raise ConfigError("nnls initialisation is undefined with sign-free groups")
            y = nnls(entries, b)
        elif kind in ("lstsq", "leastsquares"):
            y = np.linalg.lstsq(entries, b, rcond=None)[0]
        else:
            raise ConfigError(f"unknown init {init!r}")
    else:
        y = np.asarray(init, dtype=float).ravel()
        if y.shape != (n,):
            raise ValueError(f"init vector must have shape ({n},), got {y.shape}")
        y = y.copy()

    # one symmetric eigendecomposition serves every rho
    gram = entries.T @ entries
    evals, evecs = np.linalg.eigh(gram)
    atb = entries.T @ b
    qtb = evecs.T @ atb

    rho = params.rho0
    x = y.copy()
    for _ in range(PD_MAX_OUTER):
        for _ in range(PD_MAX_INNER):
            x_new = evecs @ ((qtb + rho * (evecs.T @ y)) / (evals + rho))
            y_new = x_new.copy()
            for j in range(n_con):
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
            return GroupedCoeffs(y)
        rho *= params.growth
        if rho > PD_RHO_CAP:
            raise NonConvergenceError(
                f"penalty grew past {PD_RHO_CAP:.1e} with x-y gap "
                f"{float(np.max(np.abs(x - y))):.3e}",
                residuals=float(np.max(np.abs(x - y))))
    raise NonConvergenceError("penalty decomposition hit the outer iteration cap",
                              iterations=PD_MAX_OUTER)
