"""Solvers for the quadratic subproblems of the outer loops.

Each outer iteration minimises the model

    q(z) = (z - a)' (G/2 + C) (z - a) + (z - a)' grad F(a)

over the problem's feasible set, where G is the dictionary Gram matrix
and C a non-negative diagonal shift.  Problem 2 constrains x to the
orthant (with an optional sign-free tail) and is solved exactly by
Lawson & Hanson's active set run on G itself (Bro & de Jong's FNNLS):
each iteration factors only the small block of G + 2C on the current
support, so the cost follows the support, not the dictionary.  A
sign-free tail is eliminated once per outer solve through the Schur
complement of its block.  Problem 1 additionally
carries dummy variables with per-group floor sets and a shared budget
and is solved by ADMM, whose x-update solves (G + 2C + delta I) u = rhs;
that matrix's inverse is formed once per (shift, delta) pair and cached
in a :class:`QpWorkspace` so repeated outer iterations and warm restarts
reuse it.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import kernels
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
        if not np.all((self.shift >= 0) & np.isfinite(self.shift)):
            raise ValueError("diagonal shift must be finite and non-negative")
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

    ``iterations`` counts problem 1's ADMM sweeps or problem 2's
    active-set iterations (passive-block solves).  The residuals and the
    multipliers ``p``/``p_d`` (kept so the next solve against the same
    structure can warm-start) are those of problem 1's ADMM; the exact
    problem-2 solve leaves them at their defaults.
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


# Problem 2's active set stops with NonConvergenceError after this many
# passive-block solves per constrained coordinate (3 n, as scipy's nnls).
ACTIVE_SET_ITERS_PER_COLUMN = 3


def model_cholesky(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a block of the model Hessian G + 2C.

    Raises ``ValueError`` naming ``c_matrix_scale`` when the block is not
    numerically positive definite: the factorisation fails, or a pivot
    squared is at most ``n * eps`` times the largest diagonal entry (the
    rank tolerance of LAPACK's pivoted Cholesky).
    """
    low, info = scipy.linalg.lapack.dpotrf(h, lower=1)
    if info:
        raise ValueError(f"model Hessian G + 2C is not positive definite (leading minor "
                         f"{info} of {h.shape[0]}); increase c_matrix_scale")
    if low.diagonal().min() ** 2 <= h.shape[0] * np.finfo(float).eps * h.diagonal().max():
        raise ValueError(f"model Hessian G + 2C is numerically singular on {h.shape[0]} "
                         "columns; increase c_matrix_scale")
    return low


def _solve_passive(h: np.ndarray, diag: np.ndarray, q: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """Solve (H + diag(diag))[idx, idx] s = q[idx] by a Cholesky factor of that block."""
    block = h[idx[:, None], idx]
    block.flat[::idx.size + 1] += diag[idx]
    s, _ = scipy.linalg.lapack.dpotrs(model_cholesky(block), q[idx], lower=1)
    return s


def active_set_qp(h: np.ndarray, diag: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, int]:
    """Minimise z'(H + diag(diag))z / 2 - q'z over z >= 0 by Lawson & Hanson's active set.

    The Gram-form variant of Bro & de Jong (1997): each iteration adds the
    index with the largest negative gradient to the passive set P, solves
    the unconstrained model on P from a Cholesky factor of the |P| x |P|
    block, and steps back to the feasible set while that solution has a
    non-positive entry.  Only columns of H in P are read, so the cost
    follows the support, not the size of H.  Returns the minimiser and
    the number of passive-block solves; raises :class:`NonConvergenceError`
    after ``ACTIVE_SET_ITERS_PER_COLUMN * n`` of them and ``ValueError``
    from a passive block that is not positive definite.
    """
    n = q.size
    cap = ACTIVE_SET_ITERS_PER_COLUMN * n
    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    # negative gradient q - (H + diag) z; at z = 0 it is q exactly
    w = q.copy()
    tol = 10.0 * n * np.finfo(float).eps * float(np.max(np.abs(q), initial=0.0))
    iters = 0
    while n:
        cand = np.where(passive, -np.inf, w)
        j = int(np.argmax(cand))
        if cand[j] <= tol:
            break
        passive[j] = True
        added = True
        while True:
            iters += 1
            if iters > cap:
                raise NonConvergenceError(
                    f"nnls: active set did not converge in {cap} iterations",
                    iterations=cap)
            idx = np.flatnonzero(passive)
            s = _solve_passive(h, diag, q, idx)
            if added and s[np.searchsorted(idx, j)] <= 0:
                # rounding left the new index unable to move off zero:
                # skip it until z changes (Lawson & Hanson's step 6)
                passive[j] = False
                w[j] = 0.0
                break
            added = False
            if (s > 0).all():
                z[idx] = s
                break
            zp = z[idx]
            neg = np.flatnonzero(s <= 0)
            ratios = zp[neg] / (zp[neg] - s[neg])
            first = int(np.argmin(ratios))
            zp += ratios[first] * (s - zp)
            zp[neg[first]] = 0.0
            zp = np.maximum(zp, 0.0)
            z[idx] = zp
            passive[idx[zp == 0.0]] = False
        if not added:
            idx = np.flatnonzero(passive)
            w = q - h[:, idx] @ z[idx] - diag * z
    return z, iters


FreeElimination = Tuple[Tuple[np.ndarray, bool], np.ndarray, np.ndarray]


def eliminate_free(gram: np.ndarray, shift: np.ndarray, n_free: int) -> FreeElimination:
    """Remove the ``n_free`` trailing sign-free coordinates from H = G + 2 diag(shift).

    Returns the Cholesky factor of H_ff, Y = H_ff^-1 H_fc and the Schur
    complement S = H_cc - H_cf Y, on which :func:`solve_qp_p2` runs the
    active set.  Raises ``ValueError`` when H_ff is not positive definite.
    """
    c = gram.shape[0] - n_free
    h_ff = gram[c:, c:] + np.diag(2.0 * shift[c:])
    try:
        factor = scipy.linalg.cho_factor(h_ff, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"model Hessian G + 2C is not positive definite on its "
                         f"sign-free block ({exc}); increase c_matrix_scale") from exc
    y = scipy.linalg.cho_solve(factor, gram[c:, :c], check_finite=False)
    schur = gram[:c, :c] - gram[:c, c:] @ y
    schur[np.diag_indices_from(schur)] += 2.0 * shift[:c]
    return factor, y, schur


def solve_qp_p2(sub: QpSubproblem, free: Optional[FreeElimination] = None) -> QpSolution:
    """Solve the orthant-constrained model exactly (problem 2 inner step).

    The model is z'(G + 2C)z / 2 - q'z up to a constant, with
    q = (G + 2C) a - lin, minimised over z_c >= 0 by
    :func:`active_set_qp`.  A sign-free tail z_f is eliminated first:
    ``free`` is :func:`eliminate_free` of the subproblem (computed here
    when not given), the active set runs on the Schur complement with
    q_c - Y'q_f, and z_f = H_ff^-1 q_f - Y z_c.  ``iterations`` counts the
    active set's passive-block solves.
    """
    sub.validate(grouped=False)
    f = sub.n_free
    c = sub.anchor.size - f
    diag = 2.0 * sub.shift
    q = sub.gram @ sub.anchor + diag * sub.anchor - sub.lin
    if not f:
        z, iters = active_set_qp(sub.gram, diag, q)
        return QpSolution(z, None, iters)
    factor, y, schur = free if free is not None else eliminate_free(sub.gram, sub.shift, f)
    zf0 = scipy.linalg.cho_solve(factor, q[c:], check_finite=False)
    zc, iters = active_set_qp(schur, np.zeros(c), q[:c] - y.T @ q[c:])
    return QpSolution(np.concatenate([zc, zf0 - y @ zc]), None, iters)


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
