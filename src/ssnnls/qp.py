"""Solvers for the quadratic subproblems of the outer loops.

Each outer iteration minimises the model

    (z - a)' (G/2 + C) (z - a) + (z - a)' grad F(a)

over the problem's feasible set, where G is the dictionary Gram matrix,
C = c I a non-negative multiple of the identity and a the anchor (the
current iterate).  Up to a constant that is the standard form the active
sets solve,

    z' (G + 2C) z / 2 - q' z,   q = (G + 2C) a - grad F(a),

and the outer loops hand it over in that form, as the arrays G and q
and the scalar 2c: since grad F(a) is G a - A'b plus the penalty's
gradient, q = A'b - grad P(a) + 2Ca, and neither loop nor model ever
multiplies G by the anchor.  Both problems solve the model exactly by an
active set on G itself, which reads only the rows of G on its free set,
so the cost follows the support, not the dictionary.  Problem 2
constrains x to the orthant and runs Lawson & Hanson's active set in Bro
& de Jong's Gram form (1997), started from the anchor's support when it
is sparse (Van Benthem & Keenan 2004); the NNLS baseline is the same
active set with no shift.  With no shift, a column that depends on the
passive set to rounding stays out of it (Lawson & Hanson's rule), so
problem 2 and NNLS alike solve any dictionary.  Problem 1 also carries
one dummy per group, with the group floors and one budget on the
dummies, and runs a primal active set.  Every active set, and the l1
path of :mod:`ssnnls.baselines`, keeps its free block in one factor,
:class:`_PassiveFactor`, which appends a column in a few products and
deletes one by a rank-one update, with numpy alone.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import SUPPORT_SHARE, support_matvec
from .errors import NonConvergenceError

_EPS = float(np.finfo(float).eps)


@dataclass
class AdmmParams:
    """Retired: problem 1's former ADMM settings, accepted and ignored.

    Both fields are inert; no solver reads them.  The class stays while
    the benchmark's workloads still pass it to ``demix_scene(admm=)`` and
    ``DoasFitConfig(admm=)`` (ROADMAP item 4).
    """

    tol: float = 1e-4
    max_iters: int = 50000


class QpWorkspace:
    """Retired: no solver uses it.

    Kept with :meth:`kinv` while the benchmark's tracer patches that name
    (ROADMAP item 4).
    """

    def __init__(self, gram: np.ndarray):
        self.gram = np.ascontiguousarray(gram, dtype=float)

    def kinv(self, diag_add: np.ndarray) -> np.ndarray:
        """Explicit inverse of gram + diag(diag_add)."""
        return np.linalg.inv(self.gram + np.diag(diag_add))


def model_value(gram: np.ndarray, shift: float, q: np.ndarray, q_d: np.ndarray,
                anchor: np.ndarray, anchor_d: np.ndarray, x: np.ndarray,
                d: np.ndarray) -> float:
    """Problem 1's model at (x, d), less its value at the anchor (anchor, anchor_d).

    The model is z'(G + 2C)z / 2 - q'z + d'(2C)d / 2 - q_d'd with
    C = ``shift`` I.  With dx = x - a and m = a + dx/2 that is
    m'(G dx) + 2c m'dx - q'dx plus the dummies' like terms, so only G dx
    is formed, from the rows of G on dx's support.
    """
    dx = x - anchor
    mid = anchor + 0.5 * dx
    g_dx = support_matvec(gram, dx, symmetric=True)
    val = float(mid @ g_dx) + 2.0 * float((shift * mid) @ dx) - float(q @ dx)
    dd = d - anchor_d
    mid_d = anchor_d + 0.5 * dd
    val += 2.0 * float((shift * mid_d) @ dd) - float(q_d @ dd)
    return val


# Both active sets stop with NonConvergenceError after this many
# passive-block solves per variable (3 n for problem 2, as scipy's nnls;
# 3 (n + m) for problem 1, whose m dummies count too).
ACTIVE_SET_ITERS_PER_COLUMN = 3


class _DependentColumn(ValueError):
    """The pivot of the column being added to a :class:`_PassiveFactor` fails its rank check."""


# keep() appends the survivors after the first dropped column again while
# they are at most this many per dropped column, and deletes the dropped
# columns otherwise.  Timed on one core with 3 to 60 columns in P, an append
# took about 6 us and a delete 20-25 us plus a pass over the later rows: one
# drop broke even at 5 to 7 later survivors, two at about 10.
_APPENDS_PER_DELETE = 6

# A refining factor takes at most this many refinement steps per solve.
# It solves a block of at most _DIRECT_SIZE columns directly (LU): timed
# on one core with six right-hand sides, that took 5-12 us up to 24
# columns, less than a solve refined once (12-16 us), and 18 us at 32
# against 16.  It also solves the model directly on a block whose largest
# diagonal entry exceeds _DIRECT_CONDITION times its least pivot squared,
# a lower bound on its condition number: past it refinement from W does
# not always converge, and problem 1 cycled to its cap on 64-row models
# that direct solves of its blocks meet.
_REFINE_STEPS = 10
_DIRECT_SIZE = 24
_DIRECT_CONDITION = 1e10


class _PassiveFactor:
    """An active set's passive set P, in insertion order, with W = L^-1 for its block.

    L is the lower Cholesky factor of (G + diag I)[P, P], so the model's
    minimiser on P is s = W'(W q_P), from the kept W q_P; ``q`` is a
    vector, or a matrix of right-hand sides, one per column.  Adding
    column j appends one row to W (Golub & Van Loan, section 6.5.4): with
    l = W G[P, j] and p^2 = G_jj + diag - l'l it is [-(l'W) / p, 1 / p].
    An append leaves the rows above, so :meth:`truncate` drops the last
    columns.  Deleting the column at position r (Gill, Golub, Murray &
    Saunders, Math. Comp. 1974) leaves the rows above it too; with
    v = -W[c, r] / W[r, r] for the later rows c, those become
    M^-1 (W[c, not r] + v W[r, not r]), where M M' = I + v v', and so do
    their rows of W q_P.  :meth:`keep` drops any columns, by appending the
    later survivors again, or by deletes when more than
    ``_APPENDS_PER_DELETE`` survivors per dropped column follow the first
    dropped one.  Each append checks the factor's rank: on n columns, a
    pivot squared must be positive and exceed ``n * eps`` times the
    block's largest diagonal entry (the rank tolerance of LAPACK's
    pivoted Cholesky), else a ``ValueError`` names ``c_matrix_scale``,
    a :class:`_DependentColumn` when the new column's own pivot fails;
    after deletes the pivots come from W's diagonal.  W's rounding grows
    with the block's condition number and with deletes, so a factor made
    with ``refine`` keeps the block and refines from its residual both
    its solves and an append's row, whose -(l'W) is the solve y with
    G[P, j] (then p^2 = G_jj + diag - G[j, P] y); it solves a small block
    directly, and the model on a block past ``_DIRECT_CONDITION``.  The
    buffers start at ``capacity`` columns and double when full.
    """

    def __init__(self, gram: np.ndarray, diag: float, q: np.ndarray, capacity: int,
                 refine: bool = False):
        self.gram, self.diag, self.q = gram, diag, q
        self.size = 0
        self.cols = np.empty(capacity, dtype=np.intp)
        self.inv = np.zeros((capacity, capacity))  # W; above its diagonal stays 0
        # (G + diag I)[P, P], for a refining solve's residual
        self.block = np.empty((capacity, capacity)) if refine else None
        shape = (capacity,) + q.shape[1:]
        self.q_cols, self.inv_q = np.empty(shape), np.empty(shape)
        # entry k: the least pivot squared and the largest diagonal entry of
        # the first k columns (none at k = 0)
        self.least_pivot = [math.inf]
        self.largest_diag = [0.0]

    @property
    def passive(self) -> np.ndarray:
        """The indices of P, in insertion order (a view, valid until P changes)."""
        return self.cols[:self.size]

    def add(self, j: int) -> None:
        """Append column j to P; ``ValueError`` once the block is not numerically definite."""
        k = self.size
        if k == self.cols.size:
            self._grow()
        inv = self.inv[:k, :k]
        g_j = self.gram[j].take(self.cols[:k])
        h_jj = self.gram.item(j, j) + self.diag
        row = self.inv[k, :k]
        if self.block is None:
            low = inv.dot(g_j)
            low.dot(inv, out=row)
            pivot2 = h_jj - low.dot(low)
        else:
            row[:] = self._refined(g_j)
            pivot2 = h_jj - g_j.dot(row)
        largest = max(self.largest_diag[k], h_jj)
        if pivot2 <= 0.0:
            raise _DependentColumn(f"model Hessian G + 2C is not positive definite (leading "
                                   f"minor {k + 1} of {k + 1}); increase c_matrix_scale")
        least = min(self.least_pivot[k], pivot2)
        limit = (k + 1) * _EPS * largest
        if least <= limit:
            # the new column is to blame only when its own pivot fails
            raise (_DependentColumn if pivot2 <= limit else ValueError)(
                f"model Hessian G + 2C is numerically singular on {k + 1} columns; "
                "increase c_matrix_scale")
        pivot = math.sqrt(pivot2)
        row /= -pivot
        self.inv[k, k] = 1.0 / pivot
        q_j = self.q[j]
        self.inv_q[k] = row.dot(self.q_cols[:k]) + q_j / pivot
        self.cols[k] = j
        self.q_cols[k] = q_j
        self.least_pivot.append(least)
        self.largest_diag.append(largest)
        self.size = k + 1
        if self.block is not None:
            self.block[k, :k] = self.block[:k, k] = g_j
            self.block[k, k] = h_jj

    def truncate(self, size: int) -> None:
        """Keep the first ``size`` columns of P."""
        self.size = size
        del self.least_pivot[size + 1:], self.largest_diag[size + 1:]

    def keep(self, mask: np.ndarray) -> None:
        """Keep the columns of P where ``mask`` holds, in their order; one must not."""
        first = int(np.argmin(mask))
        again = self.cols[first + 1:self.size][mask[first + 1:]]
        if again.size <= _APPENDS_PER_DELETE * (self.size - first - again.size):
            self.truncate(first)
            for j in again.tolist():
                self.add(j)
            return
        for r in np.flatnonzero(~mask)[::-1].tolist():
            self._delete(r)
        k = self.size
        pivots = np.append(self.least_pivot[first], self.inv.diagonal()[first:k] ** -2.0)
        diags = np.append(self.largest_diag[first],
                          self.gram.diagonal().take(self.cols[first:k]) + self.diag)
        self.least_pivot[first + 1:] = np.minimum.accumulate(pivots)[1:].tolist()
        self.largest_diag[first + 1:] = np.maximum.accumulate(diags)[1:].tolist()

    def solve(self) -> np.ndarray:
        """s = W'(W q_P), the minimiser of the model on P, in P's order."""
        k = self.size
        if self.block is None:
            return self.inv_q[:k].T.dot(self.inv[:k, :k]).T
        if self.largest_diag[k] > _DIRECT_CONDITION * self.least_pivot[k]:
            return np.linalg.solve(self.block[:k, :k], self.q_cols[:k])
        return self._refined(self.q_cols[:k], self.inv_q[:k])

    def _refined(self, rhs: np.ndarray, inv_rhs: Optional[np.ndarray] = None) -> np.ndarray:
        # the block's solve with rhs: directly, or W'(W rhs) from the given
        # W rhs, then refined from its residual (Skeel, Math. Comp. 1980)
        # until a step is within rounding of it or no longer halves
        k = self.size
        if k <= _DIRECT_SIZE:
            return np.linalg.solve(self.block[:k, :k], rhs)
        # products on contiguous copies: on views into the larger buffers numpy's
        # are several times slower
        inv = np.ascontiguousarray(self.inv[:k, :k])
        block = np.ascontiguousarray(self.block[:k, :k])
        s = inv.T.dot(inv.dot(rhs) if inv_rhs is None else inv_rhs)
        last = math.inf
        for _ in range(_REFINE_STEPS):
            step = inv.T.dot(inv.dot(rhs - block.dot(s)))
            s += step
            size = float(np.abs(step).max(initial=0.0))
            if size <= _EPS * float(np.abs(s).max(initial=0.0)) or size > 0.5 * last:
                break
            last = size
        return s

    def _delete(self, r: int) -> None:
        # the column at position r leaves; keep() renews the rank-check lists
        k = self.size
        m = k - 1 - r
        if not m:
            self.size = r
            return
        w, inv_q = self.inv, self.inv_q
        # the later rows of [W, W q_P] and row r, the rows c and r of the text above
        x = np.empty((m, k + inv_q[r:r + 1].size))
        x[:, :k] = w[r + 1:k, :k]
        x[:, k:] = inv_q[r + 1:k].reshape(m, -1)
        head = np.append(w[r, :k], inv_q[r])
        v = x[:, r] / -head[r]
        # with t_i = 1 + sum_(j <= i) v_j^2 and t_(i-1) that sum shifted by
        # one (never t_i - v_i^2, which cancels), row i of M^-1 (X + v head')
        # is sqrt(t_(i-1) / t_i) X_i - v_i / sqrt(t_i t_(i-1)) (sum_(j<i) v_j X_j - head)
        t = np.cumsum(v * v)
        t += 1.0
        t_prev = np.concatenate(([1.0], t[:-1]))
        y = np.empty_like(x)
        y[0] = -head
        np.multiply(v[:-1, None], x[:-1], out=y[1:])
        np.add.accumulate(y, axis=0, out=y)
        x *= np.sqrt(t_prev / t)[:, None]
        y *= (v / np.sqrt(t * t_prev))[:, None]
        x -= y
        w[r:k - 1, :r] = x[:, :r]
        w[r:k - 1, r:k - 1] = x[:, r + 1:k]
        inv_q[r:k - 1] = x[:, k:].reshape(inv_q[r:k - 1].shape)
        for buf in (self.cols, self.q_cols):
            buf[r:k - 1] = buf[r + 1:k]
        if self.block is not None:
            self.block[r:k - 1, :k] = self.block[r + 1:k, :k]
            self.block[:k - 1, r:k - 1] = self.block[:k - 1, r + 1:k]
        self.size = k - 1

    def _grow(self) -> None:
        # entries past the size are never read, so np.resize's repeats are harmless
        k = self.size
        for name in ("inv", "block"):
            if getattr(self, name) is not None:
                square = np.zeros((2 * k, 2 * k))
                square[:k, :k] = getattr(self, name)
                setattr(self, name, square)
        self.cols = np.resize(self.cols, 2 * k)
        self.q_cols = np.resize(self.q_cols, (2 * k,) + self.q.shape[1:])
        self.inv_q = np.resize(self.inv_q, (2 * k,) + self.q.shape[1:])


def solve_qp_p2(gram: np.ndarray, diag: float, q: np.ndarray,
                start: np.ndarray) -> Tuple[np.ndarray, int]:
    """Solve problem 2's model exactly: z'(G + diag I)z / 2 - q'z over z >= 0.

    ``diag`` is 2c, twice the model shift.  The model is minimised by
    Lawson & Hanson's active set in the Gram-form variant of Bro & de Jong
    (1997): each iteration adds the index with the largest negative
    gradient to the passive set P, solves the unconstrained model on P,
    and steps back to the feasible set while that solution has a
    non-positive entry.  The solve on P comes from P's factor
    (:class:`_PassiveFactor`), so an iteration costs a few products of
    size |P| and one with G's rows on P.  At ``diag`` 0 (NNLS), a column
    whose own pivot fails the factor's rank check depends on P and does
    not enter, in the start below or until z changes in the loop (Lawson
    & Hanson's rule), so a rank-deficient G is solved too; at a positive
    shift that is a ``ValueError``, as is a failure of an earlier
    column's pivot.

    ``start``, a boolean mask, is a guess at the minimiser's support (the
    anchor's).  When it holds at most ``SUPPORT_SHARE`` of the entries,
    P starts there instead of empty: the model is solved on P, and the
    entries that come out non-positive leave P until the solution is
    positive, which is a feasible point minimising the model on its
    support, from which the loop above goes on (Van Benthem & Keenan,
    2004).  A denser guess starts from z = 0.  Returns the minimiser and
    the number of passive-block solves, the start's included; raises
    :class:`NonConvergenceError` after ``ACTIVE_SET_ITERS_PER_COLUMN * n``
    of them.
    """
    n = q.size
    cap = ACTIVE_SET_ITERS_PER_COLUMN * n
    z = np.zeros(n)
    # negative gradient q - (G + diag I) z, -inf on P; at z = 0 it is q exactly
    w = q.copy()
    tol = 10.0 * n * _EPS * float(np.abs(q).max()) if n else 0.0
    iters = 0
    begin = np.flatnonzero(start)
    if begin.size > SUPPORT_SHARE * n:
        begin = begin[:0]
    factor = _PassiveFactor(gram, diag, q, min(n, max(8, 2 * begin.size)))

    def solve():
        nonlocal iters
        iters += 1
        if iters > cap:
            raise NonConvergenceError(
                f"nnls: active set did not converge in {cap} iterations",
                iterations=cap)
        return factor.solve()

    def settle(s):
        # z = s on P, 0 off it; the negative gradient off P
        nonlocal w
        idx = factor.passive
        z[idx] = s
        w = q - s.dot(gram.take(idx, axis=0))
        w[idx] = -np.inf

    def enters(j):
        # column j joins P unless, with no shift, it depends on P to rounding
        # (Lawson & Hanson's rank check)
        try:
            factor.add(j)
        except _DependentColumn:
            if diag:
                raise  # every column is independent at a positive shift
            return False
        return True

    for j in begin.tolist():
        enters(j)
    while factor.size:
        s = solve()
        if s.min() > 0.0:
            settle(s)
            break
        factor.keep(s > 0.0)
    while n:
        j = int(w.argmax())
        if w[j] <= tol:
            break
        if not enters(j):
            w[j] = 0.0  # until z changes
            continue
        w[j] = -np.inf
        s = solve()
        if s[-1] <= 0.0:
            # rounding left the new index unable to move off zero:
            # skip it until z changes (Lawson & Hanson's step 6)
            factor.truncate(factor.size - 1)
            w[j] = 0.0
            continue
        while s.min(initial=np.inf) <= 0.0:
            idx = factor.passive
            zp = z[idx]
            neg = (s <= 0.0).nonzero()[0]
            ratios = zp[neg] / (zp[neg] - s[neg])
            first = int(np.argmin(ratios))
            zp += ratios[first] * (s - zp)
            zp[neg[first]] = 0.0
            zp = np.maximum(zp, 0.0)
            z[idx] = zp
            factor.keep(zp > 0.0)
            s = solve()
        settle(s)
    return z, iters


def _polish_dummies(x: np.ndarray, d: np.ndarray, offsets: np.ndarray, eps: np.ndarray,
                    budget: float) -> np.ndarray:
    # the active set meets the floors and the budget only to rounding, and
    # entries it snaps to zero move them by up to that rounding; at fixed x,
    # raise each dummy to its group's floor and scale the excess over the
    # floors down to the slack the budget leaves
    floors = np.maximum(eps - np.add.reduceat(x, offsets[:-1]), 0.0)
    slack = budget - float(np.sum(floors / eps))
    if slack < 0:
        return d
    excess = np.maximum(d - floors, 0.0)
    used = float(np.sum(excess / eps))
    if used <= slack:
        return floors + excess
    return floors + excess * (slack / used)


# Problem 1's active set takes a step entry, or a constraint row's change
# along the step, for zero below this many rounding units of the terms it
# is formed from.
_ROUNDING_ULPS = 64.0


def solve_qp_p1(gram: np.ndarray, diag: float, q: np.ndarray, offsets: np.ndarray,
                eps: np.ndarray, q_d: np.ndarray, budget: float
                ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Solve problem 1's model with dummies exactly.

    The model is x'(G + diag I)x / 2 - q'x + diag d'd / 2 - q_d'd, over
    x >= 0, d >= 0, the group floors sum(x_g_j) + d_j >= eps_j and the
    budget sum(d / eps) <= budget; ``diag`` is 2c, twice the model shift,
    and must be positive.  A primal active set (Nocedal & Wright, section
    16.5) from a sparse feasible point: each iteration solves the model
    on the free variables with the working floors and budget (at most
    m + 1 rows) as equalities, from the refining factor of the free x
    block (in the order its entries were freed) and one small dense system
    in the free dummies and the rows' multipliers, then steps to the first
    constraint it meets or, at the working set's minimiser, releases the
    constraint with the most negative multiplier.  The dummies are repaired at fixed x on exit, so
    the floors and the budget hold to rounding.  Returns (x, d, the
    number of passive-block solves); raises :class:`NonConvergenceError`
    after ``ACTIVE_SET_ITERS_PER_COLUMN`` times (n + m) of them and
    ``ValueError`` from a free block that is not positive definite.
    """
    c, m = q.size, eps.size
    nz = c + m
    cap = ACTIVE_SET_ITERS_PER_COLUMN * nz
    group = np.repeat(np.arange(m), np.diff(offsets))
    rows = np.zeros((m + 1, nz))
    rows[group, np.arange(c)] = 1.0
    rows[np.arange(m), c + np.arange(m)] = 1.0
    rows[m, c:] = -1.0 / eps
    rhs = np.append(eps, -budget)
    # a multiplier times its row's largest entry is its pull on the gradient
    row_scale = np.append(np.ones(m), 1.0 / np.min(eps, initial=np.inf))
    tol = 10.0 * nz * _EPS * float(
        np.max(np.abs(np.concatenate([q, q_d])), initial=0.0))

    # start: each group's most attractive column carries r/m of its floor
    # and its dummy the rest, which spends the budget m - r exactly
    share = min(max((m - budget) / m, 0.0), 1.0) if m else 0.0
    z = np.zeros(nz)
    z[[a + int(np.argmax(q[a:b])) for a, b in zip(offsets[:-1], offsets[1:])]] = share * eps
    z[c:] = (1.0 - share) * eps
    free = z > 0.0
    working = np.ones(m + 1, dtype=bool)
    working[m] = budget <= m
    # the free x block, in the order its entries were freed; its right-hand
    # sides are q and the x part of every row, the working ones read off
    factor = _PassiveFactor(gram, diag, np.column_stack([q, rows[:, :c].T]), min(c, 8),
                            refine=True)
    for j in free[:c].nonzero()[0].tolist():
        factor.add(j)
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise NonConvergenceError(
                f"problem-1 active set did not converge in {cap} iterations",
                iterations=cap)
        # a working row that depends on the others on the free variables
        # goes: a floor with none of them, or a budget whose free dummies
        # are all pinned by floors of otherwise empty groups
        has_x = np.bincount(group[free[:c]], minlength=m) > 0
        free_d = free[c:]
        working[:m] &= has_x | free_d
        if working[m] and not np.any(free_d & ~(working[:m] & ~has_x)):
            working[m] = False

        # the model on the free variables with the working rows as equalities:
        # x from the factor of its block, then the free dummies and the
        # multipliers together from a small system that never divides by
        # the dummies' curvature
        ix, jd = factor.passive, free[c:].nonzero()[0]
        idx = np.concatenate([ix, c + jd])
        wk = working.nonzero()[0]
        rows_wk = rows[wk]
        ax, ad = rows_wk[:, ix], rows_wk[:, c + jd]
        sol = factor.solve()
        s0, ys = sol[:, 0], sol[:, 1 + wk]
        kd = jd.size
        small = np.zeros((kd + wk.size, kd + wk.size))
        np.fill_diagonal(small[:kd, :kd], diag)
        small[:kd, kd:] = -ad.T
        small[kd:, :kd] = ad
        small[kd:, kd:] = ax @ ys
        both = np.linalg.solve(small, np.concatenate([q_d[jd], rhs[wk] - ax @ s0]))
        lam = both[kd:]
        s = np.concatenate([s0 + ys @ lam, both[:kd]])
        zf = z[idx]
        p = s - zf
        err = _ROUNDING_ULPS * _EPS * (np.abs(s) + np.abs(zf) + np.concatenate(
            [np.abs(s0) + np.abs(ys) @ np.abs(lam), eps[jd]]))

        # ratio test over the free entries and the rows outside the working
        # set, blind to changes within rounding
        out = (~working).nonzero()[0]
        rows_out = rows[out]
        a_of = rows_out[:, idx]
        ap = a_of @ p
        err_row = np.abs(a_of) @ err
        slack = np.maximum(rows_out @ z - rhs[out], 0.0)
        ratios = np.full(idx.size + out.size, np.inf)
        hit = p < -err
        ratios[:idx.size][hit] = zf[hit] / -p[hit]
        hit = ap < -err_row
        ratios[idx.size:][hit] = slack[hit] / -ap[hit]
        k = int(np.argmin(ratios)) if ratios.size else 0
        alpha = min(1.0, float(ratios[k])) if ratios.size else 1.0
        z[idx] = zf + alpha * p
        if alpha < 1.0:
            if k < idx.size:
                z[idx[k]] = 0.0
                free[idx[k]] = False
            else:
                working[out[k - idx.size]] = True
        # entries this step moved down onto zero within rounding are bound;
        # one it moved up (just released) stays free
        down = (p < 0.0) & (z[idx] <= err)
        z[idx[down]] = 0.0
        free[idx[down]] = False
        bound = ~free[ix]
        if bound.any():
            factor.keep(~bound)
        if alpha < 1.0 or down.any():
            continue

        # z minimises the model on the working set: price its constraints
        g = np.concatenate([z[ix] @ gram[ix] - q, diag * z[c:] - q_d]) - rows_wk.T @ lam
        price = np.full(nz + m + 1, np.inf)
        price[:nz][~free] = g[~free]
        price[nz + wk] = lam * row_scale[wk]
        j = int(np.argmin(price))
        if price[j] >= -tol:
            return z[:c], _polish_dummies(z[:c], z[c:], offsets, eps, budget), iters
        if j < nz:
            free[j] = True
            if j < c:
                factor.add(j)
        else:
            working[j - nz] = False

