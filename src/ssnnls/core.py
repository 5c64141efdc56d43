"""Grouped dictionaries, sparsity configurations, and objective evaluation.

The data model: a dictionary matrix whose columns are partitioned into
contiguous groups, a coefficient vector (optionally with one dummy
variable per group), and a sparsity configuration holding the per-group
weights and floors.

Two objectives are evaluated here:

* problem 1: least squares plus weighted Hoyer ratios over the stacked
  ``(x_j, d_j)`` groups and optionally over all grouped columns,
* problem 2: least squares plus weighted smoothed ``l1 - l2`` differences.

Both cost what the support of x costs: the residual is ``A[:, S] x_S - b``
(:func:`support_matvec`), or ``t (A 1) - b`` from the kept column sum at
a constant x = t 1 such as the 0.1 start, and the penalties and their
gradients sum over all groups at once, the inter-group term being one
more group that spans every column (for problem 2, formed from the
groups' own sums).  The fit's gradient is never formed (see
:mod:`ssnnls.sgp`).  The evaluations take plain arrays and check
nothing; a solve checks its data and config once, through
:func:`checked_data`, which also forms A'b.  Problem 2's evaluation also
takes a block, one vector per row: the residual is then one product of
A with the union of the rows' supports, and every field holds one value,
or vector, per row.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DegenerateColumnError
from .penalties import diff_l1_l2_groups, hoyer_ratio_groups

# A product with A or G reads only the columns on x's support while that
# support holds at most this share of x's entries; past it the dense
# product is faster.  The constant 0.1 start takes neither: its residual
# is t (A 1) - b, from GroupedDictionary.column_sum.
# A matrix of fewer entries than SUPPORT_MIN_ENTRIES is always multiplied
# densely: with 3 nonzeros the gather costs more than the whole product
# below 32k-72k entries (timed on one core; 204 x 40 hyperspectral
# libraries are far below, 1024 x 1323 spectral dictionaries far above).
# The same share decides whether problem 2's active set starts from the
# anchor's support or from zero (ssnnls.qp.solve_qp_p2).
SUPPORT_SHARE = 0.25
SUPPORT_MIN_ENTRIES = 1 << 16

# A fitted coefficient counts as nonzero (toward a support, a group's
# support, or a sparsity metric) above this.
ZERO_TOL = 1e-6


@dataclass(frozen=True)
class GroupedDictionary:
    """Dictionary matrix with contiguous column groups.

    ``offsets`` has length ``n_groups + 1`` with ``offsets[0] == 0`` and
    ``offsets[-1] == n_columns``; group j owns columns
    ``offsets[j]:offsets[j+1]``.  ``entries`` is kept column-major, so
    the few columns on a sparse support are read contiguously; an array
    already laid out so is kept without a copy.
    """

    entries: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        entries = np.asfortranarray(self.entries, dtype=float)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "offsets", offsets)
        if entries.ndim != 2:
            raise ValueError(f"entries must be 2-d, got shape {entries.shape}")
        if offsets.ndim != 1 or offsets.size < 2:
            raise ValueError("offsets must hold at least [0, n_columns]")
        if offsets[0] != 0 or offsets[-1] != entries.shape[1]:
            raise ValueError(
                f"offsets must run from 0 to n_columns={entries.shape[1]}, "
                f"got {offsets[0]}..{offsets[-1]}"
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
    def column_sum(self) -> np.ndarray:
        """Read-only A 1, the sum of the columns, computed on first use and kept."""
        total = self.entries @ np.ones(self.n_columns)
        total.flags.writeable = False
        return total


@dataclass
class GroupedCoeffs:
    """Retired: a fit's coefficient vector, kept only as ``DoasFitResult.coeffs``.

    Solves take and return plain arrays.  The holder stays while the
    benchmark's workloads still read ``fit_doas(...).coeffs.x`` (ROADMAP
    item 4).
    """

    x: np.ndarray


@dataclass
class SparsityConfig:
    """Penalty weights, group floors and budget slack of a dictionary's groups.

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
    """Objective value split into fit and penalty, with the penalty's gradients.

    ``resid`` is Ax - b, ``penalty_grad`` the penalty's gradient in x and
    ``grad_d`` the objective's, all penalty, in the dummies.  The full
    gradient in x is A' ``resid`` + ``penalty_grad``.  An evaluation of a
    block (:func:`eval_objective_p2`) holds one value, or one row, per
    vector in each field.
    """

    value: float
    fit: float
    penalty: float
    resid: np.ndarray
    penalty_grad: np.ndarray
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


def support_matvec(mat: np.ndarray, x: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """``mat @ x`` from the columns of ``mat`` on which x is nonzero.

    A block x of vectors, one per row, gives one product per row, from
    the columns on which any row is nonzero.  With ``symmetric`` (a Gram
    matrix) it gathers the same rows instead, which a C-ordered matrix
    stores contiguously.  It is the dense product when that support
    holds more than ``SUPPORT_SHARE`` of a row's entries or ``mat`` has
    fewer than ``SUPPORT_MIN_ENTRIES`` entries.
    """
    if mat.size >= SUPPORT_MIN_ENTRIES:
        idx = np.flatnonzero(x if x.ndim == 1 else x.any(axis=0))
        if idx.size <= SUPPORT_SHARE * x.shape[-1]:
            x = x[..., idx]
            return x @ mat[idx] if symmetric else (mat[:, idx] @ x.T).T
    return (mat @ x.T).T


def _least_squares(dct: GroupedDictionary, b: np.ndarray, x: np.ndarray):
    """Residual Ax - b, on x's support or as t (A 1) - b at x = t 1, and the fit |r|^2 / 2.

    A block x and b, one vector per row, give one residual and one fit per row.
    """
    t = x.item(0) if x.size else 0.0
    constant = t > 0.0 and x.item(-1) == t and (x == t).all()
    resid = (t * dct.column_sum if constant else support_matvec(dct.entries, x)) - b
    return resid, 0.5 * np.vecdot(resid, resid)


def checked_data(dct: GroupedDictionary, b,
                 cfg: SparsityConfig) -> Tuple[np.ndarray, np.ndarray]:
    """A solve's checks, once: validates ``cfg`` and returns ``(b, A'b)``.

    A 2-d ``b`` is a block of data vectors, one per column, returned with
    one vector per row, beside (A'B)' from one product; any other ``b``
    is one vector, checked and flattened by :func:`as_data_vector`.
    ValueError unless each vector holds ``n_rows`` finite values.
    """
    cfg.validate(dct.n_groups)
    if np.ndim(b) != 2:
        b = as_data_vector(b, dct.n_rows)
        return b, dct.entries.T @ b
    b = np.asarray(b, dtype=float)
    if b.shape[0] != dct.n_rows:
        raise ValueError(f"data must have {dct.n_rows} rows, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("data must be finite")
    b = np.ascontiguousarray(b.T)
    return b, b @ dct.entries


def eval_objective_p2(dct: GroupedDictionary, b: np.ndarray, x: np.ndarray,
                      cfg: SparsityConfig) -> ObjectiveEval:
    """Least squares plus weighted smoothed l1 - l2 penalties (problem 2).

    Checks nothing: ``b`` and ``cfg`` are as :func:`checked_data` returns
    and validates them, and x is a non-negative vector of
    ``dct.n_columns`` values.  A block, x and b holding one vector per
    row, is evaluated in one call: every field then holds one value, or
    one vector, per row.
    """
    resid, fit = _least_squares(dct, b, x)
    penalty, grad = diff_l1_l2_groups(x, dct.offsets, cfg.eps, cfg.gamma, cfg.gamma0,
                                      cfg.eps.min())
    return ObjectiveEval(fit + penalty, fit, penalty, resid, grad)


def eval_objective_p1(dct: GroupedDictionary, b: np.ndarray, x: np.ndarray, d: np.ndarray,
                      cfg: SparsityConfig) -> ObjectiveEval:
    """Least squares plus weighted Hoyer ratios over stacked groups (problem 1).

    Checks nothing, as :func:`eval_objective_p2`; d holds one
    non-negative dummy per group, and each stacked vector ``(x_j, d_j)``
    must be nonzero for its ratio to be defined.
    """
    resid, fit = _least_squares(dct, b, x)
    penalty, grad_xd = hoyer_ratio_groups(x, d, dct.offsets, cfg.gamma)
    grad, grad_d = grad_xd[:x.size], grad_xd[x.size:]
    if cfg.gamma0 > 0.0:
        # the inter-group ratio is one group of every column, with a zero dummy
        value, grad0 = hoyer_ratio_groups(x, np.zeros(1), np.array([0, x.size]),
                                          np.array([cfg.gamma0]))
        penalty += value
        grad += grad0[:x.size]
    return ObjectiveEval(fit + penalty, fit, penalty, resid, grad, grad_d)
