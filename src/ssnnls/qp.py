"""ADMM solvers for the quadratic subproblems of the outer loops.

Each outer iteration minimises the model

    q(z) = (z - a)' (G/2 + C) (z - a) + (z - a)' grad F(a)

over the problem's feasible set, where G is the dictionary Gram matrix
and C a non-negative diagonal shift.  Problem 2 constrains x to the
orthant (with an optional sign-free tail); problem 1 additionally carries
dummy variables with per-group floor sets and a shared budget.

The x-update solves (G + 2C + delta I) u = rhs; that matrix's inverse is
formed once per (shift, delta) pair and cached in a :class:`QpWorkspace`
so repeated outer iterations and warm restarts reuse it.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import kernels
from .errors import NonConvergenceError


@dataclass
class AdmmParams:
    """Inner-solver settings: relative tolerance and sweep cap.

    ``tol`` bounds both the relative primal residual
    ``|u - v| / max(1, |u|, |v|)`` and the relative dual residual
    ``delta |v_k - v_{k-1}| / max(1, |p|)``.  The penalty delta is not a
    setting: it starts from the workspace's hint for the subproblem family,
    else from trace(gram)/n (the mean eigenvalue of the Gram matrix), and
    is rebalanced between chunks of sweeps (see ``_solve_balanced``).
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

    ``p``/``p_d`` are the ADMM multipliers, kept so the next solve against
    the same structure can warm-start.
    """

    x: np.ndarray
    d: Optional[np.ndarray]
    iterations: int
    rel_primal: float
    rel_dual: float
    p: np.ndarray
    p_d: Optional[np.ndarray] = None


KINV_CACHE_SIZE = 8


class QpWorkspace:
    """Caches the ``KINV_CACHE_SIZE`` most recently used (gram + diag_add)^(-1)
    inverses, keyed by the diagonal addition.

    The per-family delta hints seed later solves with the last converged
    penalty; ``freeze_hints`` stops further updates so concurrent solves
    sharing the workspace all start from the same state and results stay
    independent of scheduling order.
    """

    def __init__(self, gram: np.ndarray):
        self.gram = np.ascontiguousarray(gram, dtype=float)
        self.mean_eig = float(np.trace(self.gram)) / max(1, self.gram.shape[0])
        self._cache: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self._delta_hint: dict = {}
        self._hints_frozen = False

    def delta_hint(self, family: str) -> Optional[float]:
        with self._lock:
            return self._delta_hint.get(family)

    def store_delta(self, family: str, delta: float) -> None:
        with self._lock:
            if not self._hints_frozen:
                self._delta_hint[family] = float(delta)

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


def _solve_balanced(family: str, sub: QpSubproblem, params: AdmmParams, ws: QpWorkspace,
                    state: tuple, sweep) -> tuple:
    """Run ``sweep`` in chunks, rebalancing the penalty delta between them.

    ``sweep(kinv, delta, state, max_iters)`` runs one chunk of ADMM sweeps
    from ``state`` and returns ``(state, iters, rel_primal, rel_dual)``, as
    does this function once both residuals reach ``params.tol``.  Delta
    starts from the workspace's ``family`` hint, else from the Gram
    matrix's mean eigenvalue; the converged value is stored back.  Raises :class:`NonConvergenceError` after
    ``params.max_iters`` sweeps.
    """
    delta = ws.delta_hint(family)
    if delta is None:
        delta = max(ws.mean_eig, 1e-12)
    chunk = max(1, -(-params.max_iters // _BALANCE_CHUNKS))
    iters = 0
    rel_p = rel_d = np.inf
    while iters < params.max_iters:
        kinv = ws.kinv(2.0 * sub.shift + delta)
        state, it, rel_p, rel_d = sweep(kinv, delta, state,
                                        min(chunk, params.max_iters - iters))
        iters += it
        if rel_p <= params.tol and rel_d <= params.tol:
            ws.store_delta(family, delta)
            return state, iters, rel_p, rel_d
        if rel_d > _BALANCE_RATIO * rel_p:
            delta /= _balance_factor(rel_d, rel_p)
        elif rel_p > _BALANCE_RATIO * rel_d:
            delta *= _balance_factor(rel_p, rel_d)
    raise NonConvergenceError(
        f"inner solver stalled at primal {rel_p:.3e} / dual {rel_d:.3e} "
        f"after {iters} iterations (tol {params.tol:.1e})",
        iterations=iters, residuals=(rel_p, rel_d))


def solve_qp_p2(sub: QpSubproblem, params: AdmmParams,
                warm: Optional[QpSolution] = None,
                workspace: Optional[QpWorkspace] = None) -> QpSolution:
    """Solve the orthant-constrained model (problem 2 inner step).

    Raises :class:`NonConvergenceError` if the residuals fail to reach
    ``params.tol`` within ``params.max_iters`` sweeps.
    """
    sub.validate(grouped=False)
    ws = workspace if workspace is not None else QpWorkspace(sub.gram)
    v = np.asarray(warm.x if warm is not None else sub.anchor, dtype=float)
    p = np.asarray(warm.p if warm is not None else np.zeros_like(sub.anchor), dtype=float)

    def sweep(kinv, delta, state, max_iters):
        v, p, _, it, rel_p, rel_d = kernels.admm_nonneg(
            kinv, sub.anchor, sub.lin, *state, delta, params.tol, params.tol,
            max_iters, sub.n_free)
        return (v, p), it, rel_p, rel_d

    (v, p), iters, rel_p, rel_d = _solve_balanced("p2", sub, params, ws, (v, p), sweep)
    return QpSolution(v, None, iters, rel_p, rel_d, p)


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


def solve_qp_p1(sub: QpSubproblem, params: AdmmParams,
                warm: Optional[QpSolution] = None,
                workspace: Optional[QpWorkspace] = None) -> QpSolution:
    """Solve the grouped model with dummies (problem 1 inner step)."""
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

    def sweep(kinv, delta, state, max_iters):
        vx, vd, px, pd, _, _, it, rel_p, rel_d = kernels.admm_grouped(
            kinv, sub.anchor, sub.lin, offsets, eps, sub.anchor_d, sub.lin_d,
            2.0 * sub.shift_d + delta, float(sub.budget), *state,
            delta, params.tol, params.tol, max_iters)
        return (vx, px, vd, pd), it, rel_p, rel_d

    (vx, px, vd, pd), iters, rel_p, rel_d = _solve_balanced(
        "p1", sub, params, ws, (vx, px, vd, pd), sweep)
    vd = _polish_dummies(vx, vd, sub)
    return QpSolution(vx, vd, iters, rel_p, rel_d, px, pd)
