"""Grouped dictionaries, coefficient containers, and objective evaluation.

The data model: a dictionary matrix whose columns are partitioned into
contiguous groups followed by ``n_free`` trailing columns that belong to
no group, a coefficient vector (optionally with one dummy variable per
group), and a sparsity configuration holding the per-group weights and
floors.  The trailing columns, a sign-free tail, are sign-unconstrained
and unpenalised (the background block of a spectral fit).

Two objectives are evaluated here:

* problem 1: least squares plus weighted Hoyer ratios over the stacked
  ``(x_j, d_j)`` groups and optionally over all grouped columns,
* problem 2: least squares plus weighted smoothed ``l1 - l2`` differences.

Both cost what the support of x costs: the residual is ``A[:, S] x_S - b``
(:func:`support_matvec`), and the penalties and their gradients sum over
all groups at once.  The fit's gradient ``G[S]' x_S - A'b`` is formed
only when a caller reads :attr:`ObjectiveEval.grad_x`: the outer loops
never do, because their models' linear term
q = (G + 2C) a - grad F(a) = A'b - grad P(a) + 2Ca needs only A'b and the
penalty's gradient.  A solver passes ``atb = A'b``, formed once per solve
after it has checked the data and the config; without ``atb`` an
evaluation checks both itself.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateColumnError
from .penalties import diff_l1_l2, diff_l1_l2_groups, hoyer_ratio, hoyer_ratio_groups

# Ridge that makes the l1 baselines' Gram matrix G positive definite on
# rank-deficient dictionaries: G + L1_SHIFT * trace(G)/n * I is factored,
# i.e. a ridge of L1_SHIFT times G's mean eigenvalue.
L1_SHIFT = 1e-10

# A product with A or G reads only the columns on x's support while that
# support holds at most this share of x's entries; past it the dense
# product is faster (the 0.1 start point, a sign-free background tail).
# A matrix of fewer entries than SUPPORT_MIN_ENTRIES is always multiplied
# densely: with 3 nonzeros the gather costs more than the whole product
# below 32k-72k entries (timed on one core; 204 x 40 hyperspectral
# libraries are far below, 1024 x 1323 spectral dictionaries far above).
# The same share decides whether problem 2's active set starts from the
# anchor's support or from zero (ssnnls.qp.active_set_qp).
SUPPORT_SHARE = 0.25
SUPPORT_MIN_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GroupedDictionary:
    """Dictionary matrix with contiguous column groups and a sign-free tail.

    ``offsets`` has length ``n_groups + 1`` with ``offsets[0] == 0`` and
    ``offsets[-1] == n_columns - n_free``; group j owns columns
    ``offsets[j]:offsets[j+1]``.  The last ``n_free`` columns belong to
    no group: the solvers leave them sign-free and unpenalised.
    """

    entries: np.ndarray
    offsets: np.ndarray
    n_free: int = 0

    def __post_init__(self):
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        offsets = np.asarray(self.offsets, dtype=np.int64)
        n_free = int(self.n_free)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "n_free", n_free)
        if entries.ndim != 2:
            raise ValueError(f"entries must be 2-d, got shape {entries.shape}")
        if not 0 <= n_free <= entries.shape[1]:
            raise ValueError(f"n_free must be in 0..{entries.shape[1]}, got {n_free}")
        if offsets.ndim != 1 or offsets.size < 2:
            raise ValueError("offsets must hold at least [0, n_columns - n_free]")
        if offsets[0] != 0 or offsets[-1] != entries.shape[1] - n_free:
            raise ValueError(
                f"offsets must run from 0 to n_columns - n_free="
                f"{entries.shape[1] - n_free}, got {offsets[0]}..{offsets[-1]}"
            )
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("group offsets must be strictly increasing")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_columns(self) -> int:
        return self.entries.shape[1]

    @property
    def n_groups(self) -> int:
        return self.offsets.size - 1

    def group_slice(self, j: int) -> slice:
        return slice(int(self.offsets[j]), int(self.offsets[j + 1]))

    def group_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only Gram matrix A'A, computed on first use and kept."""
        gram = self.entries.T @ self.entries
        gram.flags.writeable = False
        return gram

    @cached_property
    def l1_factor(self) -> Optional[np.ndarray]:
        """Read-only upper Cholesky factor R, R'R = G + ridge (``L1_SHIFT``); None if G = 0."""
        mean_eig = float(np.trace(self.gram)) / self.n_columns
        if mean_eig <= 0:
            return None
        shifted = self.gram.copy()
        shifted[np.diag_indices_from(shifted)] += L1_SHIFT * mean_eig
        factor = scipy.linalg.cholesky(shifted, overwrite_a=True)
        factor.flags.writeable = False
        return factor


@dataclass
class GroupedCoeffs:
    """Coefficient vector, with one dummy per group when present."""

    x: np.ndarray
    d: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).ravel()
        if self.d is not None:
            self.d = np.asarray(self.d, dtype=float).ravel()

    def copy(self) -> "GroupedCoeffs":
        return GroupedCoeffs(self.x.copy(), None if self.d is None else self.d.copy())


@dataclass
class SparsityConfig:
    """Penalty weights, group floors and budget slack of a dictionary's groups.

    A dictionary's sign-free tail belongs to no group and has no entry here.

    Parameters
    ----------
    gamma : array, shape (n_groups,)
        Intra-group penalty weights, >= 0.
    gamma0 : float
        Inter-group penalty weight, >= 0; problem 2 smooths its term with
        the radius ``min(eps)``.
    eps : array, shape (n_groups,)
        Per-group floors (problem 1) and smoothing radii (problem 2), > 0.
    r : float
        Dummy budget slack: the budget is ``n_groups - r``.
    """

    gamma: np.ndarray
    gamma0: float
    eps: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        self.eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        self.gamma0 = float(self.gamma0)
        self.r = float(self.r)

    def validate(self, n_groups: int) -> None:
        if self.gamma.shape != (n_groups,):
            raise ValueError(f"gamma must have shape ({n_groups},), got {self.gamma.shape}")
        if self.eps.shape != (n_groups,):
            raise ValueError(f"eps must have shape ({n_groups},), got {self.eps.shape}")
        if not (np.isfinite(self.gamma).all() and np.isfinite(self.eps).all()
                and math.isfinite(self.gamma0) and math.isfinite(self.r)):
            raise ConfigError("gamma, gamma0, eps and r must be finite")
        if np.any(self.gamma < 0) or self.gamma0 < 0:
            raise ConfigError("penalty weights must be non-negative")
        if np.any(self.eps <= 0):
            raise ConfigError("group floors must be positive")
        if self.r < 0:
            raise ConfigError("budget slack r must be non-negative")
        if self.r > n_groups:
            raise ConfigError("budget slack r exceeds the number of groups")

    def budget(self, n_groups: int) -> float:
        return n_groups - self.r


@dataclass
class ObjectiveEval:
    """Objective value split into fit and penalty, with gradients.

    ``penalty_grad`` is the penalty's gradient in x (zero on a sign-free
    tail) and ``grad_d`` the objective's, all penalty, in the dummies.
    The full gradient in x, ``grad_x`` = G x - A'b + ``penalty_grad``, is
    formed from the rows of the cached Gram matrix on x's support when it
    is first read, and kept.
    """

    value: float
    fit: float
    penalty: float
    resid: np.ndarray
    penalty_grad: np.ndarray
    grad_d: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = field(default=None, repr=False)
    dct: Optional[GroupedDictionary] = field(default=None, repr=False)
    atb: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def grad_x(self) -> np.ndarray:
        fit_grad = support_matvec(self.dct.gram, self.x, symmetric=True) - self.atb
        return fit_grad + self.penalty_grad


def as_data_vector(b, n_rows: int) -> np.ndarray:
    """``b`` as a flat float vector; ValueError unless it holds n_rows finite values."""
    b = np.asarray(b, dtype=float).ravel()
    if b.size != n_rows:
        raise ValueError(f"data must have {n_rows} entries, got {b.size}")
    if not np.all(np.isfinite(b)):
        raise ValueError("data must be finite")
    return b


def normalize_columns(entries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scale each column to unit Euclidean norm.

    Returns ``(normalized, scales)`` where ``scales`` are the original
    column norms, so a coefficient on a normalized column divided by its
    scale is the coefficient on the original column.  Raises
    ``DegenerateColumnError`` on a zero column.
    """
    entries = np.asarray(entries, dtype=float)
    scales = np.linalg.norm(entries, axis=0)
    bad = np.nonzero(scales <= 0.0)[0]
    if bad.size:
        raise DegenerateColumnError(f"columns {bad.tolist()} are identically zero")
    return entries / scales, scales


def support_matvec(mat: np.ndarray, x: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """``mat @ x`` from the columns of ``mat`` on which x is nonzero.

    With ``symmetric`` (a Gram matrix) it gathers the same rows instead,
    which a C-ordered matrix stores contiguously.  It is the dense product
    when x has more than ``SUPPORT_SHARE`` of its entries nonzero or
    ``mat`` has fewer than ``SUPPORT_MIN_ENTRIES`` entries.
    """
    if mat.size >= SUPPORT_MIN_ENTRIES:
        idx = np.flatnonzero(x)
        if idx.size <= SUPPORT_SHARE * x.size:
            return x[idx] @ mat[idx] if symmetric else mat[:, idx] @ x[idx]
    return mat @ x


def _least_squares(dct: GroupedDictionary, b: np.ndarray, x: np.ndarray):
    """Residual Ax - b, on x's support, and the fit |r|^2 / 2."""
    resid = support_matvec(dct.entries, x) - b
    return resid, 0.5 * float(resid @ resid)


def checked_data(dct: GroupedDictionary, b,
                 cfg: SparsityConfig) -> Tuple[np.ndarray, np.ndarray]:
    """A solve's checks, once: validates ``cfg`` and returns ``(b, A'b)``.

    ``b`` is checked and flattened by :func:`as_data_vector`.
    """
    cfg.validate(dct.n_groups)
    b = as_data_vector(b, dct.n_rows)
    return b, dct.entries.T @ b


def _checked_x(dct: GroupedDictionary, coeffs: GroupedCoeffs) -> np.ndarray:
    if coeffs.x.shape != (dct.n_columns,):
        raise ValueError(f"x must have shape ({dct.n_columns},), got {coeffs.x.shape}")
    return coeffs.x


def eval_objective_p2(dct: GroupedDictionary, b: np.ndarray, coeffs: GroupedCoeffs,
                      cfg: SparsityConfig, atb: Optional[np.ndarray] = None) -> ObjectiveEval:
    """Least squares plus weighted smoothed l1 - l2 penalties (problem 2).

    ``atb`` is A'b from a caller that has already checked ``b`` and
    ``cfg`` (:func:`checked_data`), as the solvers do once per solve;
    without it both are checked here and A'b formed.
    """
    if atb is None:
        b, atb = checked_data(dct, b, cfg)
    x = _checked_x(dct, coeffs)
    resid, fit = _least_squares(dct, b, x)

    pre = int(dct.offsets[-1])
    pv = diff_l1_l2_groups(x[:pre], dct.offsets, cfg.eps, cfg.gamma)
    penalty, grad = pv.value, np.zeros(x.size)
    grad[:pre] += pv.grad
    if cfg.gamma0 > 0.0:
        pv = diff_l1_l2(x[:pre], float(np.min(cfg.eps)))
        penalty += cfg.gamma0 * pv.value
        grad[:pre] += cfg.gamma0 * pv.grad

    return ObjectiveEval(fit + penalty, fit, penalty, resid, grad, x=x, dct=dct, atb=atb)


def eval_objective_p1(dct: GroupedDictionary, b: np.ndarray, coeffs: GroupedCoeffs,
                      cfg: SparsityConfig, atb: Optional[np.ndarray] = None) -> ObjectiveEval:
    """Least squares plus weighted Hoyer ratios over stacked groups (problem 1).

    Requires one dummy per group; each stacked vector
    ``(x_j, d_j)`` must be nonzero for the ratio to be defined.  ``atb``
    is as for :func:`eval_objective_p2`.
    """
    if atb is None:
        b, atb = checked_data(dct, b, cfg)
    x = _checked_x(dct, coeffs)
    m = dct.n_groups
    if coeffs.d is None:
        raise ValueError("problem 1 requires dummy variables")
    d = coeffs.d
    if d.shape != (m,):
        raise ValueError(f"d must have shape ({m},), got {d.shape}")
    resid, fit = _least_squares(dct, b, x)

    pre = int(dct.offsets[-1])
    pv = hoyer_ratio_groups(x[:pre], d, dct.offsets, cfg.gamma)
    penalty, grad_x = pv.value, np.zeros(x.size)
    grad_x[:pre] += pv.grad[:pre]
    grad_d = pv.grad[pre:]
    if cfg.gamma0 > 0.0:
        pv = hoyer_ratio(x[:pre])
        penalty += cfg.gamma0 * pv.value
        grad_x[:pre] += cfg.gamma0 * pv.grad

    return ObjectiveEval(fit + penalty, fit, penalty, resid, grad_x, grad_d,
                         x=x, dct=dct, atb=atb)
