"""Scaled gradient projection outer loops.

Each outer iteration minimises a strongly convex quadratic model of the
objective around the current iterate (see :mod:`ssnnls.qp`) and accepts
the result either unconditionally (problem 2, fixed diagonal scaling,
justified by the concavity of the smoothed penalty on the orthant) or
through a sufficient-decrease test that adapts the scaling (problem 1,
where the Hoyer ratio's curvature is unbounded near the floors).

Both problems minimise their model exactly at every step by an active
set on the dictionary's cached Gram matrix, which factors only the small
block on the current support; a sign-free tail costs one Cholesky factor
per outer solve (problem 2) or per model solve (problem 1, whose shift
changes between them).  Each solve checks its data, its configuration
and its ``init`` and forms A'b once.  The model goes to :mod:`ssnnls.qp`
in standard form, z'(G + 2C)z / 2 - q'z with
q = (G + 2C) a - grad F(a) = A'b - grad P(a) + 2Ca (and
q_d = 2 C_d a_d - grad_d P(a) for problem 1's dummies), so the fit's
gradient G a - A'b is never formed: an objective evaluation forms only
the residual, from the iterate's nonzero columns, and the penalty's
gradient (:mod:`ssnnls.core`).  That leaves two dense passes over A per
solve, A'b and the residual at the dense start; after it a step costs
what its support costs.  A step that cannot descend ends either run as
``energy_tol``, and an active set's
:class:`~ssnnls.errors.NonConvergenceError` propagates.
"""

import numbers
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import (GroupedCoeffs, GroupedDictionary, SparsityConfig, checked_data,
                   eval_objective_p1, eval_objective_p2)
from .errors import ConfigError, NonConvergenceError
from .qp import (QpSubproblem, eliminate_free, model_cholesky, model_value, solve_qp_p1,
                 solve_qp_p2)

TERM_STEP = "step_tol"
TERM_ENERGY = "energy_tol"
TERM_MAX_OUTER = "max_outer"


# Algorithm constants of the outer loops, read at call time.  Problem 1
# scales its diagonal shift by a dynamic factor c_n starting at C0: a
# candidate failing the sufficient-decrease test
# F(y) - F(x) <= SIGMA * model(y) is rejected and c_n grows by XI2 (more
# than MAX_REJECTIONS in a row raise NonConvergenceError); after an
# acceptance c_n shrinks by XI1 while the scaled diagonal stays above the
# eigenvalue floor RHO.  Both loops stop when the sup-norm step falls to
# TOL_STEP.
C0 = 1.0
SIGMA = 0.1
XI1 = 2.0
XI2 = 10.0
RHO = 1e-12
MAX_REJECTIONS = 60
TOL_STEP = 0.0


@dataclass
class SgpParams:
    """Outer-loop settings.

    ``c_matrix_scale`` is the diagonal magnitude of the model shift C;
    problem 2 keeps C fixed, problem 1 multiplies it by the dynamic factor
    described at ``C0``, ``SIGMA``, ``XI1``, ``XI2``, ``RHO`` and
    ``MAX_REJECTIONS``.  The loop stops when the sup-norm step falls to
    ``TOL_STEP``, when the objective changes by at most ``tol_energy``
    relative to its new value (``|F_old - F_new| <= tol_energy |F_new|``),
    or at ``max_outer``.
    """

    c_matrix_scale: float = 1e-9
    tol_energy: float = 1e-8
    max_outer: int = 500

    def __post_init__(self):
        if not isinstance(self.max_outer, numbers.Integral) or self.max_outer < 1:
            raise ConfigError(f"max_outer must be a whole number of at least 1, "
                              f"got {self.max_outer!r}")
        for name in ("tol_energy", "c_matrix_scale"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")


@dataclass
class SolveReport:
    """Outcome of one outer solve: final point, traces, termination reason.

    ``inner_iters_total`` sums the active-set iterations (passive-block
    solves, see :class:`ssnnls.qp.QpSolution`) of every model solve: for
    problem 2 the solves that start a step from the anchor's support
    too, for problem 1 those of rejected candidates, for both problems
    those of the unaccepted last step.
    """

    final: GroupedCoeffs
    objective_trace: List[float] = field(default_factory=list)
    c_trace: List[float] = field(default_factory=list)
    step_trace: List[float] = field(default_factory=list)
    outer_iters: int = 0
    inner_iters_total: int = 0
    termination: str = TERM_MAX_OUTER


def _default_x0(n: int) -> np.ndarray:
    return np.full(n, 0.1)


def _checked_init(init: Optional[GroupedCoeffs], n: int,
                  n_groups: Optional[int] = None) -> Optional[GroupedCoeffs]:
    """A copy of ``init``, or None; ValueError naming ``init`` unless it fits the problem.

    x must hold n finite values.  With ``n_groups`` (problem 1) a given d
    must hold n_groups finite values; otherwise d is dropped.
    """
    if init is None:
        return None
    x = init.x.astype(float)
    if x.shape != (n,):
        raise ValueError(f"init must have {n} coefficients, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("init coefficients must be finite")
    if n_groups is None or init.d is None:
        return GroupedCoeffs(x)
    d = init.d.astype(float)
    if d.shape != (n_groups,):
        raise ValueError(f"init must have {n_groups} dummies, got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("init dummies must be finite")
    return GroupedCoeffs(x, d)


def _feasible_p1_init(dct: GroupedDictionary, cfg: SparsityConfig,
                      init: Optional[GroupedCoeffs]) -> GroupedCoeffs:
    """``init`` (default x = 0.1, d = 0) made feasible for problem 1 in closed form.

    ``init`` is checked by :func:`_checked_init`.  x and d are clipped at
    0; each group short of its floor is raised evenly onto it, so x alone
    meets every floor, and d is scaled down onto the budget when
    sum(d / eps) exceeds it.
    """
    m = dct.n_groups
    pre = int(dct.offsets[-1])
    init = _checked_init(init, dct.n_columns, m)
    x = _default_x0(dct.n_columns) if init is None else init.x
    d = np.zeros(m) if init is None or init.d is None else init.d
    x[:pre] = np.maximum(x[:pre], 0.0)
    d = np.maximum(d, 0.0)
    for j in range(m):
        sl = dct.group_slice(j)
        short = float(cfg.eps[j]) - float(np.sum(x[sl]))
        if short > 0:
            x[sl] += short / (sl.stop - sl.start)
    used, budget = float(np.sum(d / cfg.eps)), cfg.budget(m)
    if used > budget:
        d *= budget / used
    return GroupedCoeffs(x, d)


def solve_problem2(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                   params: Optional[SgpParams] = None,
                   init: Optional[GroupedCoeffs] = None) -> SolveReport:
    """Minimise the smoothed l1 - l2 objective over the orthant (problem 2).

    The diagonal scaling stays fixed at ``c_matrix_scale``, so every step
    solves its model exactly by an active set on the dictionary's cached
    Gram matrix (:func:`ssnnls.qp.solve_qp_p2`); a sign-free tail is
    eliminated once per solve, and each step's active set starts from the
    anchor's support when it is sparse.  A model minimiser that does not
    lower the objective ends the run as ``energy_tol``.  A
    :class:`NonConvergenceError` from a step's active set propagates; an
    ``init`` of the wrong length or with a NaN or infinite entry is a
    ``ValueError`` before any evaluation.
    """
    params = params or SgpParams()
    b, atb = checked_data(dct, b, cfg)
    n, n_free = dct.n_columns, dct.n_free
    pre = n - n_free

    init = _checked_init(init, n)
    x = _default_x0(n) if init is None else init.x
    x[:pre] = np.maximum(x[:pre], 0.0)

    gram = dct.gram
    if not params.c_matrix_scale > 0:
        # with no shift the model is strongly convex only if A has full column rank
        model_cholesky(gram)
    shift = np.full(n, params.c_matrix_scale)
    free = eliminate_free(gram, shift, n_free) if n_free else None
    report = SolveReport(final=GroupedCoeffs(x))

    ev = eval_objective_p2(dct, b, GroupedCoeffs(x), cfg, atb=atb)
    report.objective_trace.append(ev.value)
    for _ in range(params.max_outer):
        # q = (G + 2C) x - grad F(x), in which G x cancels
        sub = QpSubproblem(gram=gram, q=atb - ev.penalty_grad + 2.0 * shift * x, anchor=x,
                           shift=shift, n_free=n_free)
        sol = solve_qp_p2(sub, free)
        report.inner_iters_total += sol.iterations
        ev_y = eval_objective_p2(dct, b, GroupedCoeffs(sol.x), cfg, atb=atb)
        if ev_y.value > ev.value:
            report.termination = TERM_ENERGY
            break
        step = float(np.max(np.abs(sol.x - x))) if n else 0.0
        x = sol.x
        report.objective_trace.append(ev_y.value)
        report.c_trace.append(params.c_matrix_scale)
        report.step_trace.append(step)
        report.outer_iters += 1
        decrease = ev.value - ev_y.value
        ev = ev_y
        if step <= TOL_STEP:
            report.termination = TERM_STEP
            break
        if abs(decrease) <= params.tol_energy * abs(ev.value):
            report.termination = TERM_ENERGY
            break
    report.final = GroupedCoeffs(x)
    return report


def solve_problem1(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                   params: Optional[SgpParams] = None,
                   init: Optional[GroupedCoeffs] = None) -> SolveReport:
    """Minimise the Hoyer-ratio objective with dummy variables (problem 1).

    Every step solves its model exactly by a primal active set on the
    dictionary's cached Gram matrix (:func:`ssnnls.qp.solve_qp_p1`).
    Candidates must pass the sufficient-decrease test; rejections inflate
    the diagonal scaling by ``XI2`` and re-solve from the same anchor.  A
    model minimiser no better than the anchor (model value >= 0) ends the
    run as ``energy_tol``.  A :class:`NonConvergenceError` from a step's
    active set propagates; an ``init`` whose x or d has the wrong length
    or a NaN or infinite entry is a ``ValueError`` before any evaluation.
    """
    params = params or SgpParams()
    b, atb = checked_data(dct, b, cfg)
    n, m = dct.n_columns, dct.n_groups
    budget = cfg.budget(m)

    coeffs = _feasible_p1_init(dct, cfg, init)
    x, d = coeffs.x, coeffs.d

    gram = dct.gram
    report = SolveReport(final=GroupedCoeffs(x, d))
    c = C0
    rejections = 0

    ev = eval_objective_p1(dct, b, GroupedCoeffs(x, d), cfg, atb=atb)
    report.objective_trace.append(ev.value)
    while report.outer_iters < params.max_outer:
        diag = c * params.c_matrix_scale
        # q = (G + 2C) x - grad F(x), in which G x cancels; the dummies
        # enter F through the penalty alone
        sub = QpSubproblem(gram=gram, q=atb - ev.penalty_grad + 2.0 * diag * x, anchor=x,
                           shift=np.full(n, diag), n_free=dct.n_free,
                           offsets=dct.offsets, eps=cfg.eps, anchor_d=d,
                           q_d=2.0 * diag * d - ev.grad_d,
                           shift_d=np.full(m, diag), budget=budget)
        sol = solve_qp_p1(sub)
        report.inner_iters_total += sol.iterations
        model = model_value(sub, sol.x, sol.d)
        if model >= 0.0:
            report.termination = TERM_ENERGY
            break
        ev_y = eval_objective_p1(dct, b, GroupedCoeffs(sol.x, sol.d), cfg, atb=atb)
        if ev_y.value - ev.value > SIGMA * model:
            c *= XI2
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise NonConvergenceError(
                    f"no sufficient decrease after {rejections} scaling increases",
                    iterations=report.outer_iters, trace=report.objective_trace)
            continue
        step = max(float(np.max(np.abs(sol.x - x))),
                   float(np.max(np.abs(sol.d - d))))
        x, d = sol.x, sol.d
        rejections = 0
        report.objective_trace.append(ev_y.value)
        report.c_trace.append(diag)
        report.step_trace.append(step)
        report.outer_iters += 1
        decrease = ev.value - ev_y.value
        ev = ev_y
        if (c / XI1) * params.c_matrix_scale >= RHO:
            c /= XI1
        if step <= TOL_STEP:
            report.termination = TERM_STEP
            break
        if abs(decrease) <= params.tol_energy * abs(ev.value):
            report.termination = TERM_ENERGY
            break
    report.final = GroupedCoeffs(x, d)
    return report


def check_descent_estimate(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                           at: GroupedCoeffs, to: GroupedCoeffs,
                           lambda_r: float, lambda_big: float,
                           problem: str = "p2") -> bool:
    """Check the quadratic upper estimate used to justify the outer step.

    With lambda_r / lambda_big lower and upper eigenvalue bounds of the
    penalty Hessian between ``at`` and ``to``, the objective change is
    bounded by

        (lambda_big - lambda_r/2) |dz|^2 + |A dx|^2 / 2 + dz . grad F(at)

    where dz stacks the coefficient (and dummy) differences.  Any
    diagonal model shift cancels from the two sides, so none is taken.
    """
    if problem == "p2":
        ev = eval_objective_p2(dct, b, at, cfg)
        fy = eval_objective_p2(dct, b, to, cfg).value
        dz2 = float(np.sum((to.x - at.x) ** 2))
        inner = float(ev.grad_x @ (to.x - at.x))
    elif problem == "p1":
        ev = eval_objective_p1(dct, b, at, cfg)
        fy = eval_objective_p1(dct, b, to, cfg).value
        dz2 = float(np.sum((to.x - at.x) ** 2) + np.sum((to.d - at.d) ** 2))
        inner = float(ev.grad_x @ (to.x - at.x)) + float(ev.grad_d @ (to.d - at.d))
    else:
        raise ValueError(f"problem must be 'p1' or 'p2', got {problem!r}")
    a_dx = dct.entries @ (to.x - at.x)
    rhs = (lambda_big - 0.5 * lambda_r) * dz2 + 0.5 * float(a_dx @ a_dx) + inner
    lhs = fy - ev.value
    return lhs <= rhs + 1e-10 * (1.0 + abs(lhs))
