"""Grouped dictionaries, coefficient containers, and objective evaluation.

The data model: a dictionary matrix whose columns are partitioned into
contiguous groups, a coefficient vector (optionally with one dummy
variable per constrained group), and a sparsity configuration holding the
per-group weights and floors.  Groups listed in ``free_groups`` are
sign-unconstrained and unpenalised (used for background blocks); they
must be trailing.

Two objectives are evaluated here:

* problem 1: least squares plus weighted Hoyer ratios over the stacked
  ``(x_j, d_j)`` groups and optionally over the full constrained block,
* problem 2: least squares plus weighted smoothed ``l1 - l2`` differences.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DegenerateColumnError
from .penalties import diff_l1_l2, hoyer_ratio


@dataclass(frozen=True)
class GroupedDictionary:
    """Dictionary matrix with contiguous column groups.

    ``offsets`` has length ``n_groups + 1`` with ``offsets[0] == 0`` and
    ``offsets[-1] == n_columns``; group j owns columns
    ``offsets[j]:offsets[j+1]``.
    """

    entries: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "offsets", offsets)
        if entries.ndim != 2:
            raise ValueError(f"entries must be 2-d, got shape {entries.shape}")
        if offsets.ndim != 1 or offsets.size < 2:
            raise ValueError("offsets must hold at least [0, n_columns]")
        if offsets[0] != 0 or offsets[-1] != entries.shape[1]:
            raise ValueError(
                f"offsets must run from 0 to n_columns={entries.shape[1]}, got "
                f"{offsets[0]}..{offsets[-1]}"
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
        """Read-only Gram matrix A'A, computed on first use and kept.

        The cache takes no lock: code that shares one dictionary between
        threads reads it once before they start.
        """
        gram = self.entries.T @ self.entries
        gram.flags.writeable = False
        return gram


@dataclass
class GroupedCoeffs:
    """Coefficient vector, with one dummy per constrained group when present."""

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
    """Penalty weights, group floors, and structural options.

    Parameters
    ----------
    gamma : array, shape (n_groups,)
        Intra-group penalty weights, >= 0.  Must be 0 for free groups.
    gamma0 : float
        Inter-group penalty weight, >= 0.  Must be 0 when free groups
        are present.
    eps : array, shape (n_groups,)
        Per-group floors (problem 1) and smoothing radii (problem 2),
        > 0 for constrained groups.
    eps0 : float, optional
        Smoothing radius of the inter-group term in problem 2; defaults
        to ``min(eps)`` over constrained groups.
    r : float
        Dummy budget slack: the budget is ``n_constrained_groups - r``.
    free_groups : tuple of int
        Trailing groups that are sign-unconstrained and unpenalised.
    """

    gamma: np.ndarray
    gamma0: float
    eps: np.ndarray
    eps0: Optional[float] = None
    r: float = 0.0
    free_groups: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        self.eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        self.gamma0 = float(self.gamma0)
        self.r = float(self.r)
        self.free_groups = tuple(int(j) for j in self.free_groups)

    def validate(self, n_groups: int) -> None:
        if self.gamma.shape != (n_groups,):
            raise ValueError(f"gamma must have shape ({n_groups},), got {self.gamma.shape}")
        if self.eps.shape != (n_groups,):
            raise ValueError(f"eps must have shape ({n_groups},), got {self.eps.shape}")
        scalars = (self.gamma0, self.r, 0.0 if self.eps0 is None else float(self.eps0))
        if not (np.isfinite(self.gamma).all() and np.isfinite(self.eps).all()
                and all(map(math.isfinite, scalars))):
            raise ConfigError("gamma, gamma0, eps, eps0 and r must be finite")
        if np.any(self.gamma < 0) or self.gamma0 < 0:
            raise ConfigError("penalty weights must be non-negative")
        free = set(self.free_groups)
        if free:
            if any(j < 0 or j >= n_groups for j in free):
                raise ConfigError(f"free group index out of range 0..{n_groups - 1}")
            n_con = n_groups - len(free)
            if free != set(range(n_con, n_groups)):
                raise ConfigError("free groups must be the trailing groups")
            if np.any(self.gamma[list(free)] != 0.0):
                raise ConfigError("free groups must carry zero intra-group weight")
            if self.gamma0 != 0.0:
                raise ConfigError("inter-group weight must be zero when free groups are present")
        con = self.constrained_groups(n_groups)
        if np.any(self.eps[con] <= 0):
            raise ConfigError("group floors must be positive for constrained groups")
        if self.r < 0:
            raise ConfigError("budget slack r must be non-negative")
        if self.r > len(con):
            raise ConfigError("budget slack r exceeds the number of constrained groups")

    def constrained_groups(self, n_groups: int) -> np.ndarray:
        free = set(self.free_groups)
        return np.array([j for j in range(n_groups) if j not in free], dtype=np.int64)

    def n_constrained(self, n_groups: int) -> int:
        return n_groups - len(self.free_groups)

    def budget(self, n_groups: int) -> float:
        return self.n_constrained(n_groups) - self.r

    def eps0_value(self, n_groups: int) -> float:
        if self.eps0 is not None:
            return float(self.eps0)
        con = self.constrained_groups(n_groups)
        return float(np.min(self.eps[con]))


@dataclass
class ObjectiveEval:
    """Objective value split into fit and penalty, with gradients."""

    value: float
    fit: float
    penalty: float
    resid: np.ndarray
    grad_x: np.ndarray
    grad_d: Optional[np.ndarray] = None


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


def _grouped_prefix(dct: GroupedDictionary, cfg: SparsityConfig) -> int:
    return int(dct.offsets[cfg.n_constrained(dct.n_groups)])


def eval_objective_p2(dct: GroupedDictionary, b: np.ndarray, coeffs: GroupedCoeffs,
                      cfg: SparsityConfig) -> ObjectiveEval:
    """Least squares plus weighted smoothed l1 - l2 penalties (problem 2)."""
    cfg.validate(dct.n_groups)
    x = coeffs.x
    if x.shape != (dct.n_columns,):
        raise ValueError(f"x must have shape ({dct.n_columns},), got {x.shape}")
    b = as_data_vector(b, dct.n_rows)

    resid = dct.entries @ x - b
    fit = 0.5 * float(resid @ resid)
    grad = dct.entries.T @ resid

    penalty = 0.0
    n_con = cfg.n_constrained(dct.n_groups)
    for j in range(n_con):
        gj = float(cfg.gamma[j])
        if gj == 0.0:
            continue
        sl = dct.group_slice(j)
        pv = diff_l1_l2(x[sl], float(cfg.eps[j]))
        penalty += gj * pv.value
        grad[sl] += gj * pv.grad
    if cfg.gamma0 > 0.0:
        pre = _grouped_prefix(dct, cfg)
        pv = diff_l1_l2(x[:pre], cfg.eps0_value(dct.n_groups))
        penalty += cfg.gamma0 * pv.value
        grad[:pre] += cfg.gamma0 * pv.grad

    return ObjectiveEval(fit + penalty, fit, penalty, resid, grad)


def eval_objective_p1(dct: GroupedDictionary, b: np.ndarray, coeffs: GroupedCoeffs,
                      cfg: SparsityConfig) -> ObjectiveEval:
    """Least squares plus weighted Hoyer ratios over stacked groups (problem 1).

    Requires dummies on the constrained groups; each stacked vector
    ``(x_j, d_j)`` must be nonzero for the ratio to be defined.
    """
    cfg.validate(dct.n_groups)
    x = coeffs.x
    if x.shape != (dct.n_columns,):
        raise ValueError(f"x must have shape ({dct.n_columns},), got {x.shape}")
    n_con = cfg.n_constrained(dct.n_groups)
    if coeffs.d is None:
        raise ValueError("problem 1 requires dummy variables")
    d = coeffs.d
    if d.shape != (n_con,):
        raise ValueError(f"d must have shape ({n_con},), got {d.shape}")
    b = as_data_vector(b, dct.n_rows)

    resid = dct.entries @ x - b
    fit = 0.5 * float(resid @ resid)
    grad_x = dct.entries.T @ resid
    grad_d = np.zeros(n_con)

    penalty = 0.0
    for j in range(n_con):
        sl = dct.group_slice(j)
        stacked = np.append(x[sl], d[j])
        pv = hoyer_ratio(stacked)
        gj = float(cfg.gamma[j])
        if gj != 0.0:
            penalty += gj * pv.value
            grad_x[sl] += gj * pv.grad[:-1]
            grad_d[j] += gj * pv.grad[-1]
    if cfg.gamma0 > 0.0:
        pre = _grouped_prefix(dct, cfg)
        pv = hoyer_ratio(x[:pre])
        penalty += cfg.gamma0 * pv.value
        grad_x[:pre] += cfg.gamma0 * pv.grad

    return ObjectiveEval(fit + penalty, fit, penalty, resid, grad_x, grad_d)
