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
iteration factors only the small block of G + 2C on the current support
and the cost follows the support, not the dictionary.  Problem 2
constrains x to the orthant and runs Lawson & Hanson's active set (Bro
& de Jong's FNNLS), started from the anchor's support when that support
is sparse (Bro & de Jong 1997; Van Benthem & Keenan 2004).  Problem 1
also carries one dummy per group, with the group floors and one budget
on the dummies; a primal active set solves the free dummies and the
multipliers of the working floors and budget in one small dense system.
Problem 1's value check reads G dx from the rows of G on dx's support
(:func:`ssnnls.core.support_matvec`), and the active sets read the rows
of G on their free set, so a step never multiplies the whole of a large G.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg.lapack

from .core import SUPPORT_SHARE, support_matvec
from .errors import NonConvergenceError


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
    low, info = scipy.linalg.lapack.dpotrf(h, lower=1)
    if info:
        raise ValueError(f"model Hessian G + 2C is not positive definite (leading minor "
                         f"{info} of {h.shape[0]}); increase c_matrix_scale")
    if low.diagonal().min() ** 2 <= h.shape[0] * np.finfo(float).eps * h.diagonal().max():
        raise ValueError(f"model Hessian G + 2C is numerically singular on {h.shape[0]} "
                         "columns; increase c_matrix_scale")
    return low


def _solve_passive(gram: np.ndarray, diag: float, q: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """Solve (G + diag I)[idx, idx] s = q[idx] by a Cholesky factor of that block."""
    block = gram[idx[:, None], idx]
    block.flat[::idx.size + 1] += diag
    s, _ = scipy.linalg.lapack.dpotrs(model_cholesky(block), q[idx], lower=1)
    return s


def solve_qp_p2(gram: np.ndarray, diag: float, q: np.ndarray,
                start: np.ndarray) -> Tuple[np.ndarray, int]:
    """Solve problem 2's model exactly: z'(G + diag I)z / 2 - q'z over z >= 0.

    ``diag`` is 2c, twice the model shift.  The model is minimised by
    Lawson & Hanson's active set in the Gram-form variant of Bro & de Jong
    (1997): each iteration adds the index with the largest negative
    gradient to the passive set P, solves
    the unconstrained model on P from a Cholesky factor of the |P| x |P|
    block, and steps back to the feasible set while that solution has a
    non-positive entry.  Only rows of G in P are read (G is symmetric, so
    they are its columns, and stored contiguously), so the cost follows
    the support, not the size of G.

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
    passive = np.zeros(n, dtype=bool)
    # negative gradient q - (G + diag I) z; at z = 0 it is q exactly
    w = q.copy()
    tol = 10.0 * n * np.finfo(float).eps * float(np.max(np.abs(q), initial=0.0))
    iters = 0

    def solve(idx):
        nonlocal iters
        iters += 1
        if iters > cap:
            raise NonConvergenceError(
                f"nnls: active set did not converge in {cap} iterations",
                iterations=cap)
        return _solve_passive(gram, diag, q, idx)

    if np.count_nonzero(start) <= SUPPORT_SHARE * n:
        passive[start] = True
        while passive.any():
            idx = np.flatnonzero(passive)
            s = solve(idx)
            if (s > 0).all():
                z[idx] = s
                w = q - s @ gram[idx] - diag * z
                break
            passive[idx[s <= 0]] = False
    while n:
        cand = np.where(passive, -np.inf, w)
        j = int(np.argmax(cand))
        if cand[j] <= tol:
            break
        passive[j] = True
        added = True
        while True:
            idx = np.flatnonzero(passive)
            s = solve(idx)
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
            w = q - z[idx] @ gram[idx] - diag * z
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
    tol = 10.0 * nz * np.finfo(float).eps * float(
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
        err = _ROUNDING_ULPS * np.finfo(float).eps * (np.abs(s) + np.abs(zf) + np.concatenate(
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

