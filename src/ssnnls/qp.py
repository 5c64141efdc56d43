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
multiplies G by the anchor.  Both problems
solve the model exactly by an active set run on G itself, so each
iteration works only on the small block of G + 2C on the current support
and the cost follows the support, not the dictionary.  Problem 2
constrains x to the orthant and runs Lawson & Hanson's active set (Bro
& de Jong's FNNLS), started from the anchor's support when that support
is sparse (Bro & de Jong 1997; Van Benthem & Keenan 2004).  It adds one
column per iteration, so it carries the inverse of the block's Cholesky
factor and grows it by one row per added column (Golub & Van Loan,
section 6.5.4), with numpy alone.  Problem 1
also carries one dummy per group, with the group floors and one budget
on the dummies; a primal active set solves the free dummies and the
multipliers of the working floors and budget in one small dense system,
after factoring its free block through LAPACK, which loads SciPy on its
first call (as does the l1 path of :mod:`ssnnls.baselines`).
Problem 1's value check reads G dx from the rows of G on dx's support
(:func:`ssnnls.core.support_matvec`), and the active sets read the rows
of G on their free set, so a step never multiplies the whole of a large G.
"""

import math
from dataclasses import dataclass
from typing import Tuple

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


def model_cholesky(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a block of the model Hessian G + 2C.

    Raises ``ValueError`` naming ``c_matrix_scale`` when the block is not
    numerically positive definite: the factorisation fails, or a pivot
    squared is at most ``n * eps`` times the largest diagonal entry (the
    rank tolerance of LAPACK's pivoted Cholesky).
    """
    try:
        low = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(_failed_minor(h), h.shape[0]) from None
    _check_pivots(float(low.diagonal().min()) ** 2, h.shape[0], float(h.diagonal().max()))
    return low


def _not_positive_definite(minor: int, n: int) -> ValueError:
    return ValueError(f"model Hessian G + 2C is not positive definite (leading minor "
                      f"{minor} of {n}); increase c_matrix_scale")


def _check_pivots(smallest: float, n: int, largest_diag: float) -> None:
    """:func:`model_cholesky`'s rank check: ``smallest``, the least pivot squared of
    a factor of n columns, must exceed ``n * eps`` times the block's largest diagonal entry."""
    if smallest <= n * _EPS * largest_diag:
        raise ValueError(f"model Hessian G + 2C is numerically singular on {n} "
                         "columns; increase c_matrix_scale")


def _failed_minor(h: np.ndarray) -> int:
    """The order of the first leading block of ``h`` that numpy's Cholesky rejects.

    numpy does not report the failed pivot, so this bisects on the
    leading blocks; it is called only after the whole of ``h`` failed.
    """
    good, bad = 0, h.shape[0]
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(h[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad


def _solve_passive(gram: np.ndarray, diag: float, q: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """Solve (G + diag I)[idx, idx] s = q[idx] by a Cholesky factor of that block.

    One LAPACK ``dposv`` call factors and solves; the factor then passes
    :func:`model_cholesky`'s checks before s is returned.  Problem 1's
    active set and the l1 path use it; SciPy is loaded on the first call.
    """
    import scipy.linalg.lapack  # on first use: problem 2 and the pipelines run without SciPy

    block = gram[idx[:, None], idx]
    block.flat[::idx.size + 1] += diag
    low, s, info = scipy.linalg.lapack.dposv(block, q[idx], lower=1)
    if info:
        raise _not_positive_definite(info, idx.size)
    _check_pivots(float(low.diagonal().min()) ** 2, idx.size, float(block.diagonal().max()))
    return s


class _PassiveFactor:
    """Problem 2's passive set P in insertion order, with W = L^-1 for its block.

    L is the lower Cholesky factor of (G + diag I)[P, P], so the model's
    minimiser on P is s = W'(W q_P): two small products, from the kept
    vector W q_P.  Adding column j appends one row to W (Golub & Van
    Loan, *Matrix Computations*, section 6.5.4): with l = W G[P, j] and
    p^2 = G_jj + diag - l'l, the row is [-(l'W) / p, 1 / p], and the new
    entry of W q_P is that row times q_[P, j].  Rows are never changed
    afterwards, so the leading rows of W are the factor of the leading
    columns of P: :meth:`truncate` drops the last columns, and
    :meth:`keep` drops any, appending again the ones after the first
    dropped.  Each append applies :func:`model_cholesky`'s checks to the
    factor so far.  The buffers start at ``capacity`` columns and double
    when full, so their size follows the support, not G.
    """

    def __init__(self, gram: np.ndarray, diag: float, q: np.ndarray, capacity: int):
        self.gram, self.diag, self.q = gram, diag, q
        self.size = 0
        self.cols = np.empty(capacity, dtype=np.intp)
        self.inv = np.zeros((capacity, capacity))  # W; above its diagonal stays 0
        self.q_cols = np.empty(capacity)
        self.inv_q = np.empty(capacity)
        # entry k: the least pivot squared and the largest diagonal entry of
        # the first k rows (none at k = 0)
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
        low = inv.dot(self.gram[j].take(self.cols[:k]))
        h_jj = self.gram.item(j, j) + self.diag
        pivot2 = h_jj - low.dot(low)
        if pivot2 <= 0.0:
            raise _not_positive_definite(k + 1, k + 1)
        least = min(self.least_pivot[k], pivot2)
        largest = max(self.largest_diag[k], h_jj)
        _check_pivots(least, k + 1, largest)
        pivot = math.sqrt(pivot2)
        row = self.inv[k, :k]
        low.dot(inv, out=row)
        row /= -pivot
        self.inv[k, k] = 1.0 / pivot
        q_j = self.q.item(j)
        self.inv_q[k] = row.dot(self.q_cols[:k]) + q_j / pivot
        self.cols[k] = j
        self.q_cols[k] = q_j
        self.least_pivot.append(least)
        self.largest_diag.append(largest)
        self.size = k + 1

    def truncate(self, size: int) -> None:
        """Keep the first ``size`` columns of P."""
        self.size = size
        del self.least_pivot[size + 1:], self.largest_diag[size + 1:]

    def keep(self, mask: np.ndarray) -> None:
        """Keep the columns of P where ``mask`` holds, in their order; one must not."""
        first = int(np.argmin(mask))
        again = self.cols[first + 1:self.size][mask[first + 1:]]
        self.truncate(first)
        for j in again.tolist():
            self.add(j)

    def solve(self) -> np.ndarray:
        """s = W'(W q_P), the minimiser of the model on P, in P's order."""
        k = self.size
        return self.inv_q[:k].dot(self.inv[:k, :k])

    def _grow(self) -> None:
        # entries past the size are never read, so np.resize's repeats are harmless
        k = self.size
        inv = np.zeros((2 * k, 2 * k))
        inv[:k, :k] = self.inv
        self.inv = inv
        self.cols = np.resize(self.cols, 2 * k)
        self.q_cols = np.resize(self.q_cols, 2 * k)
        self.inv_q = np.resize(self.inv_q, 2 * k)


def solve_qp_p2(gram: np.ndarray, diag: float, q: np.ndarray,
                start: np.ndarray) -> Tuple[np.ndarray, int]:
    """Solve problem 2's model exactly: z'(G + diag I)z / 2 - q'z over z >= 0.

    ``diag`` is 2c, twice the model shift.  The model is minimised by
    Lawson & Hanson's active set in the Gram-form variant of Bro & de Jong
    (1997): each iteration adds the index with the largest negative
    gradient to the passive set P, solves the unconstrained model on P,
    and steps back to the feasible set while that solution has a
    non-positive entry.  The solve on P comes from the inverse of P's
    Cholesky factor, grown by one row per added column and cut back when
    columns leave (:class:`_PassiveFactor`), so an iteration costs a few
    products of size |P|.  Only rows of G in P are read (G is symmetric,
    so they are its columns, and stored contiguously), so the cost
    follows the support, not the size of G.  It needs numpy alone.

    ``start``, a boolean mask, is a guess at the minimiser's support (the
    anchor's).  When it holds at most ``SUPPORT_SHARE`` of the entries,
    P starts there instead of empty: the model is solved on P, and the
    entries that come out non-positive leave P until the solution is
    positive, which is a feasible point minimising the model on its
    support, from which the loop above goes on (Van Benthem & Keenan,
    2004).  A denser guess starts from z = 0.  Returns the minimiser and
    the number of passive-block solves, the start's included; raises
    :class:`NonConvergenceError` after ``ACTIVE_SET_ITERS_PER_COLUMN * n``
    of them and ``ValueError`` from a passive block that is not positive
    definite.
    """
    n = q.size
    cap = ACTIVE_SET_ITERS_PER_COLUMN * n
    z = np.zeros(n)
    # negative gradient q - (G + diag I) z, -inf on P; at z = 0 it is q exactly
    w = q.copy()
    tol = 10.0 * n * _EPS * float(np.max(np.abs(q), initial=0.0))
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
        # z = s on P; the negative gradient off P
        nonlocal w
        idx = factor.passive
        z[idx] = s
        w = q - s.dot(gram.take(idx, axis=0))
        w[idx] = -np.inf

    for j in begin.tolist():
        factor.add(j)
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
        factor.add(j)
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
            neg = np.flatnonzero(s <= 0.0)
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
    m + 1 rows) as equalities, from a Cholesky factor of the free x block
    and one small dense system in the free dummies and the rows'
    multipliers, then steps to the first constraint it meets or, at the
    working set's minimiser, releases the constraint with the most
    negative multiplier.  The dummies are repaired at fixed x on exit, so
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
        # x from a factor of its block, then the free dummies and the
        # multipliers together from a small system that never divides by
        # the dummies' curvature
        idx = np.flatnonzero(free)
        wk = np.flatnonzero(working)
        ix, jd = idx[idx < c], idx[idx >= c] - c
        ax, ad = rows[wk][:, ix], rows[wk][:, c + jd]
        sol = np.zeros((ix.size, wk.size + 1))
        if ix.size:
            sol = _solve_passive(gram, diag, np.column_stack([q, rows[wk, :c].T]), ix)
        s0, ys = sol[:, 0], sol[:, 1:]
        kd = jd.size
        small = np.zeros((kd + wk.size, kd + wk.size))
        small[:kd, :kd] = diag * np.eye(kd)
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
        out = np.flatnonzero(~working)
        a_of = rows[out][:, idx]
        ap = a_of @ p
        err_row = np.abs(a_of) @ err
        slack = np.maximum(rows[out] @ z - rhs[out], 0.0)
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
        if alpha < 1.0 or down.any():
            continue

        # z minimises the model on the working set: price its constraints
        g = np.concatenate([z[ix] @ gram[ix] - q, diag * z[c:] - q_d]) - rows[wk].T @ lam
        price = np.full(nz + m + 1, np.inf)
        price[:nz][~free] = g[~free]
        price[nz + wk] = lam * row_scale[wk]
        j = int(np.argmin(price))
        if price[j] >= -tol:
            return z[:c], _polish_dummies(z[:c], z[c:], offsets, eps, budget), iters
        if j < nz:
            free[j] = True
        else:
            working[j - nz] = False

