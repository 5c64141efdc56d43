"""Reference methods: NNLS, constrained/penalized l1, and l0 penalty decomposition.

These are the comparison points for the structured solvers: plain
non-negative least squares (scipy's active-set solver), the penalized
l1 problem ``min 0.5 |Ax - b|^2 + gamma |x|_1  s.t.  x >= 0`` solved
exactly as one NNLS on a Cholesky factor of the Gram matrix, the
constrained form ``min |x|_1  s.t.  x >= 0, |Ax - b| <= tau`` as a
root-find on gamma over such solves (van den Berg & Friedlander's
Pareto curve), and a penalty decomposition scheme for the exact
per-group l0 constraint.  The l1 baselines take no settings; their
constants are ``L1_GAMMA_RTOL`` and ``L1_MAX_SOLVES`` here and the
ridge ``ssnnls.core.L1_SHIFT`` of the factor the dictionary keeps.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg
import scipy.optimize

from .core import GroupedDictionary, SparsityConfig, as_data_vector
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


# The constrained form's root-find on the penalty weight stops once the
# solutions bracketing the tau-sphere share their support (the solution
# path is affine between them, so interpolating onto the sphere is exact),
# once the bracketing weights agree to L1_GAMMA_RTOL, or after
# L1_MAX_SOLVES penalized solves.
L1_GAMMA_RTOL = 1e-12
L1_MAX_SOLVES = 100


def l1_weight(value: float, name: str, positive: bool = False) -> float:
    """``value`` as a float; ``ValueError`` unless finite and >= 0 (> 0 if ``positive``)."""
    value = float(value)
    if not np.isfinite(value) or value < 0 or (positive and value == 0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return value


def _l1_solve(r: np.ndarray, atb: np.ndarray, gamma: float) -> np.ndarray:
    """Minimiser of 0.5 x'R'Rx - (A'b - gamma)'x over x >= 0, as one NNLS."""
    return nnls(r, scipy.linalg.solve_triangular(r, atb - gamma, trans="T"))


def l1_penalized(dct: GroupedDictionary, b: np.ndarray, gamma: float) -> np.ndarray:
    """Penalized form ``min 0.5 |Ax - b|^2 + gamma |x|_1  s.t.  x >= 0``.

    On the orthant |x|_1 = 1'x, so this is the strictly convex QP
    ``0.5 x'Gx - (A'b - gamma 1)'x``; with G (plus the ``L1_SHIFT`` ridge)
    = R'R, the factor ``dct.l1_factor`` kept for every right-hand side,
    it is exactly NNLS(R, R^-T (A'b - gamma 1)).  The groups play no part.
    """
    b = as_data_vector(b, dct.n_rows)
    gamma = l1_weight(gamma, "gamma")
    r = dct.l1_factor
    if r is None:
        return np.zeros(dct.n_columns)
    return _l1_solve(r, dct.entries.T @ b, gamma)


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


def l1_bregman(dct: GroupedDictionary, b: np.ndarray, tau: float) -> np.ndarray:
    """Constrained l1 recovery ``min |x|_1  s.t.  x >= 0, |Ax - b| <= tau``.

    A minimiser of the penalized problem (:func:`l1_penalized`) whose
    residual equals tau minimises |x|_1 over the whole tau-ball, and the
    residual grows with the weight, from the NNLS residual at 0 to |b| at
    max(A'b).  So a bracketed secant search (Illinois) on the weight, each
    step one exact penalized solve on the dictionary's Cholesky factor
    (``dct.l1_factor``), lands on the constrained solution: once both
    ends of the bracket share a support the path between them is affine,
    and the point where the segment crosses the sphere is the solution.
    Raises :class:`NonConvergenceError` when even NNLS leaves a residual
    above tau.
    """
    entries = dct.entries
    b = as_data_vector(b, dct.n_rows)
    tau = l1_weight(tau, "tau", positive=True)
    b_norm = float(np.linalg.norm(b))
    if b_norm <= tau:
        return np.zeros(dct.n_columns)
    r = dct.l1_factor
    if r is None:
        raise ValueError("dictionary is identically zero")
    atb = entries.T @ b

    def excess(gamma):
        x = _l1_solve(r, atb, gamma)
        return x, float(np.linalg.norm(entries @ x - b)) - tau

    x_in, f_in = excess(0.0)
    if f_in > 0:
        raise NonConvergenceError(
            f"NNLS residual {f_in + tau:.6e} exceeds tau={tau:.6e}: no non-negative "
            "point reaches the tau-ball", iterations=1, residuals=f_in + tau)
    g_in, g_out = 0.0, float(np.max(atb))
    x_out, f_out = np.zeros(entries.shape[1]), b_norm - tau
    side = 0  # which end the last step replaced: -1 inside, +1 outside
    for _ in range(L1_MAX_SOLVES):
        if f_in == 0 or np.array_equal(x_in > 0, x_out > 0) \
                or g_out - g_in <= L1_GAMMA_RTOL * g_out:
            break
        gamma = (g_in * f_out - g_out * f_in) / (f_out - f_in)
        if not g_in < gamma < g_out:
            gamma = 0.5 * (g_in + g_out)
        x, f = excess(gamma)
        if f <= 0:
            g_in, x_in, f_in = gamma, x, f
            if side == -1:
                f_out *= 0.5
            side = -1
        else:
            g_out, x_out, f_out = gamma, x, f
            if side == 1:
                f_in *= 0.5
            side = 1
    return _sphere_interpolate(entries, b, tau, x_out, x_in)


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
                             init: Union[str, np.ndarray] = "zero") -> np.ndarray:
    """At most one active column per group, by penalty decomposition.

    Alternates a ridge-regularised least-squares step in x with an exact
    projection of y onto the per-group constraint (keep the largest entry
    of each group, clipped to be non-negative; ties take the lowest
    index), increasing the coupling penalty rho geometrically until x and
    y agree to ``tol_outer``.  Returns the structured side y, which
    satisfies the group constraint exactly.

    ``init`` selects the starting y: "zero", "nnls", "lstsq" (minimum-norm
    least squares), or an explicit vector.
    """
    params = params or PdParams()
    cfg.validate(dct.n_groups)
    b = as_data_vector(b, dct.n_rows)
    entries = dct.entries
    n = dct.n_columns

    if isinstance(init, str):
        kind = init.lower()
        if kind == "zero":
            y = np.zeros(n)
        elif kind == "nnls":
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
