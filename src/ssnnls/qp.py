"""Solvers for the quadratic subproblems of the outer loops.

Each outer iteration minimises the model

    q(z) = (z - a)' (G/2 + C) (z - a) + (z - a)' grad F(a)

over the problem's feasible set, where G is the dictionary Gram matrix
and C a non-negative diagonal shift.  Problem 2 constrains x to the
orthant (with an optional sign-free tail) and is solved exactly: with
G + 2C = R'R the model is |R z - (R a - R^-T grad F(a))|^2 / 2 plus a
constant, a non-negative least-squares problem.  Problem 1 additionally
carries dummy variables with per-group floor sets and a shared budget
and is solved by ADMM, whose x-update solves (G + 2C + delta I) u = rhs;
that matrix's inverse is formed once per (shift, delta) pair and cached
in a :class:`QpWorkspace` so repeated outer iterations and warm restarts
reuse it.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import kernels
from .baselines import nnls
from .errors import NonConvergenceError


@dataclass
class AdmmParams:
    """Problem 1's inner-solver settings: relative tolerance and sweep cap.

    ``tol`` bounds both the relative primal residual
    ``|u - v| / max(1, |u|, |v|)`` and the relative dual residual
    ``delta |v_k - v_{k-1}| / max(1, |p|)``.  The penalty delta is not a
    setting: it starts from the workspace's hint, else from trace(gram)/n
    (the mean eigenvalue of the Gram matrix), and is rebalanced between
    chunks of sweeps (see :func:`solve_qp_p1`).
    """

    tol: float = 1e-4
    max_iters: int = 50000


@dataclass
class QpSubproblem:
    """One quadratic model: Gram matrix, gradient, anchor, diagonal shift.

    The feasible set is described by ``n_free`` (trailing sign-free
    coordinates) and, for problem 1, the group ``offsets``/``eps`` floors,
    dummy block (``anchor_d``, ``lin_d``, ``shift_d``) and ``budget``.
    """

    gram: np.ndarray
    lin: np.ndarray
    anchor: np.ndarray
    shift: np.ndarray
    n_free: int = 0
    offsets: Optional[np.ndarray] = None
    eps: Optional[np.ndarray] = None
    anchor_d: Optional[np.ndarray] = None
    lin_d: Optional[np.ndarray] = None
    shift_d: Optional[np.ndarray] = None
    budget: float = 0.0

    def validate(self, grouped: bool) -> None:
        n = self.anchor.size
        if self.gram.shape != (n, n):
            raise ValueError(f"gram must be ({n},{n}), got {self.gram.shape}")
        if self.lin.shape != (n,) or self.shift.shape != (n,):
            raise ValueError("lin and shift must match the anchor length")
        if np.any(self.shift < 0):
            raise ValueError("diagonal shift must be non-negative")
        if not 0 <= self.n_free <= n:
            raise ValueError(f"n_free out of range 0..{n}")
        if grouped:
            if self.offsets is None or self.eps is None or self.anchor_d is None \
                    or self.lin_d is None or self.shift_d is None:
                raise ValueError("grouped subproblem requires offsets/eps/dummy fields")
            m = self.eps.size
            if self.offsets.shape != (m + 1,):
                raise ValueError("offsets must have one more entry than eps")
            if int(self.offsets[-1]) != n - self.n_free:
                raise ValueError("groups must cover exactly the sign-constrained prefix")
            for name in ("anchor_d", "lin_d", "shift_d"):
                if getattr(self, name).shape != (m,):
                    raise ValueError(f"{name} must have shape ({m},)")
            if np.any(self.eps <= 0):
                raise ValueError("group floors must be positive")
            if np.any(self.shift_d < 0):
                raise ValueError("dummy shift must be non-negative")


@dataclass
class QpSolution:
    """Feasible minimiser of one quadratic model plus solver state.

    The sweep count, residuals and the multipliers ``p``/``p_d`` (kept so
    the next solve against the same structure can warm-start) are those of
    problem 1's ADMM; the exact problem-2 solve leaves them at their
    defaults.
    """

    x: np.ndarray
    d: Optional[np.ndarray]
    iterations: int = 0
    rel_primal: float = 0.0
    rel_dual: float = 0.0
    p: Optional[np.ndarray] = None
    p_d: Optional[np.ndarray] = None


KINV_CACHE_SIZE = 8


class QpWorkspace:
    """The Gram matrix plus problem 1's solver state shared across solves.

    Caches the ``KINV_CACHE_SIZE`` most recently used (gram + diag_add)^(-1)
    inverses, keyed by the diagonal addition.  The delta hint seeds later
    problem-1 solves with the last converged ADMM penalty; ``freeze_hints``
    stops further updates so concurrent solves sharing the workspace all
    start from the same state and results stay independent of scheduling
    order.
    """

    def __init__(self, gram: np.ndarray):
        self.gram = np.ascontiguousarray(gram, dtype=float)
        self.mean_eig = float(np.trace(self.gram)) / max(1, self.gram.shape[0])
        self._cache: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self._delta_hint: Optional[float] = None
        self._hints_frozen = False

    def delta_hint(self) -> Optional[float]:
        with self._lock:
            return self._delta_hint

    def store_delta(self, delta: float) -> None:
        with self._lock:
            if not self._hints_frozen:
                self._delta_hint = float(delta)

    def freeze_hints(self) -> None:
        with self._lock:
            self._hints_frozen = True

    def kinv(self, diag_add: np.ndarray) -> np.ndarray:
        key = np.asarray(diag_add, dtype=float).tobytes()
        with self._lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                return self._cache[key]
        k_matrix = self.gram + np.diag(diag_add)
        c, low = scipy.linalg.cho_factor(k_matrix)
        inv = scipy.linalg.cho_solve((c, low), np.eye(k_matrix.shape[0]))
        with self._lock:
            self._cache[key] = inv
            while len(self._cache) > KINV_CACHE_SIZE:
                self._cache.popitem(last=False)
        return inv


def model_value(sub: QpSubproblem, x: np.ndarray, d: Optional[np.ndarray] = None) -> float:
    """Evaluate the quadratic model at (x, d); zero at the anchor."""
    dx = x - sub.anchor
    val = 0.5 * float(dx @ (sub.gram @ dx)) + float((sub.shift * dx) @ dx) + float(sub.lin @ dx)
    if sub.anchor_d is not None and d is not None:
        dd = d - sub.anchor_d
        val += float((sub.shift_d * dd) @ dd) + float(sub.lin_d @ dd)
    return val


def factorise_p2(gram: np.ndarray, shift: np.ndarray, n_free: int) -> np.ndarray:
    """Upper Cholesky factor R of G + 2 diag(shift) for :func:`solve_qp_p2`.

    Rows and columns are rolled so the ``n_free`` sign-free trailing
    coordinates come first: R'R = Q (G + 2C) Q' with Q z = np.roll(z, n_free).
    Raises ``ValueError`` when G + 2C is not numerically positive definite
    (a zero shift with a rank-deficient dictionary).
    """
    order = np.roll(np.arange(gram.shape[0]), n_free)
    h = gram[np.ix_(order, order)]
    h[np.diag_indices_from(h)] += 2.0 * shift[order]
    try:
        c, _ = scipy.linalg.cho_factor(h, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"model Hessian G + 2C is not positive definite ({exc}); "
                         "increase c_matrix_scale") from exc
    return np.triu(c)


def solve_qp_p2(sub: QpSubproblem, r: Optional[np.ndarray] = None) -> QpSolution:
    """Solve the orthant-constrained model exactly (problem 2 inner step).

    ``r`` is :func:`factorise_p2` of the subproblem's Gram matrix, shift
    and ``n_free``, computed here when not given.  With the f sign-free
    coordinates first, R = [[R_ff, R_fc], [0, R_cc]] and
    d = R a - R^-T lin, the constrained block is NNLS(R_cc, d_c) (Lawson
    & Hanson's active set, :func:`ssnnls.baselines.nnls`) and the free
    block solves R_ff z_f = d_f - R_fc z_c.  Raises
    :class:`NonConvergenceError` if the NNLS hits its iteration cap.
    """
    sub.validate(grouped=False)
    f = sub.n_free
    if r is None:
        r = factorise_p2(sub.gram, sub.shift, f)
    rhs = r @ np.roll(sub.anchor, f) - scipy.linalg.solve_triangular(
        r, np.roll(sub.lin, f), trans="T")
    z = np.empty_like(rhs)
    z[f:] = nnls(r[f:, f:], rhs[f:])
    if f:
        z[:f] = scipy.linalg.solve_triangular(r[:f, :f], rhs[:f] - r[:f, f:] @ z[f:])
    return QpSolution(np.roll(z, -f), None)


def _polish_dummies(x: np.ndarray, d: np.ndarray, sub: QpSubproblem) -> np.ndarray:
    # consensus iterates meet the budget only to primal-residual accuracy;
    # re-project d exactly, keeping each group floor satisfied at fixed x.
    m = sub.eps.size
    floors = np.empty(m)
    for j in range(m):
        a, b = int(sub.offsets[j]), int(sub.offsets[j + 1])
        floors[j] = max(0.0, float(sub.eps[j]) - float(np.sum(x[a:b])))
    slack = sub.budget - float(np.sum(floors / sub.eps))
    if slack < 0:
        return d
    e = d - floors
    ec = np.maximum(e, 0.0)
    if float(np.sum(ec / sub.eps)) <= slack:
        return floors + ec
    if slack == 0.0:
        return floors.copy()
    e = kernels.weighted_simplex_project(e, 1.0 / sub.eps, slack)
    return floors + e


# Residual balancing: between chunks of sweeps, rescale delta toward the
# point where neither residual dominates.  The move size follows the
# imbalance (sqrt of the residual ratio, clipped), so a badly scaled start
# travels orders of magnitude in a few chunks; the balanced value is stored
# on the workspace and reused by later solves against the same gram.
_BALANCE_CHUNKS = 16
_BALANCE_RATIO = 10.0
_BALANCE_MAX_FACTOR = 32.0


def _balance_factor(hi: float, lo: float) -> float:
    if lo <= 0.0:
        return _BALANCE_MAX_FACTOR
    return float(min(_BALANCE_MAX_FACTOR, max(2.0, np.sqrt(hi / lo))))


def solve_qp_p1(sub: QpSubproblem, params: AdmmParams,
                warm: Optional[QpSolution] = None,
                workspace: Optional[QpWorkspace] = None) -> QpSolution:
    """Solve the grouped model with dummies (problem 1 inner step).

    Runs ADMM sweeps in chunks, rebalancing the penalty delta between
    them, until both residuals reach ``params.tol``.  Delta starts from
    the workspace's hint, else from the Gram matrix's mean eigenvalue;
    the converged value is stored back.  Raises
    :class:`NonConvergenceError` after ``params.max_iters`` sweeps.
    """
    sub.validate(grouped=True)
    ws = workspace if workspace is not None else QpWorkspace(sub.gram)
    vx = np.asarray(warm.x if warm is not None else sub.anchor, dtype=float)
    px = np.asarray(warm.p if warm is not None else np.zeros_like(sub.anchor), dtype=float)
    vd = np.asarray(warm.d if warm is not None and warm.d is not None else sub.anchor_d,
                    dtype=float)
    pd = np.asarray(warm.p_d if warm is not None and warm.p_d is not None
                    else np.zeros_like(sub.anchor_d), dtype=float)
    offsets = np.asarray(sub.offsets, dtype=np.int64)
    eps = np.asarray(sub.eps, dtype=float)

    delta = ws.delta_hint()
    if delta is None:
        delta = max(ws.mean_eig, 1e-12)
    chunk = max(1, -(-params.max_iters // _BALANCE_CHUNKS))
    iters = 0
    rel_p = rel_d = np.inf
    while iters < params.max_iters:
        kinv = ws.kinv(2.0 * sub.shift + delta)
        vx, vd, px, pd, _, _, it, rel_p, rel_d = kernels.admm_grouped(
            kinv, sub.anchor, sub.lin, offsets, eps, sub.anchor_d, sub.lin_d,
            2.0 * sub.shift_d + delta, float(sub.budget), vx, px, vd, pd,
            delta, params.tol, params.tol, min(chunk, params.max_iters - iters))
        iters += it
        if rel_p <= params.tol and rel_d <= params.tol:
            ws.store_delta(delta)
            vd = _polish_dummies(vx, vd, sub)
            return QpSolution(vx, vd, iters, rel_p, rel_d, px, pd)
        if rel_d > _BALANCE_RATIO * rel_p:
            delta /= _balance_factor(rel_d, rel_p)
        elif rel_p > _BALANCE_RATIO * rel_d:
            delta *= _balance_factor(rel_p, rel_d)
    raise NonConvergenceError(
        f"inner solver stalled at primal {rel_p:.3e} / dual {rel_d:.3e} "
        f"after {iters} iterations (tol {params.tol:.1e})",
        iterations=iters, residuals=(rel_p, rel_d))
