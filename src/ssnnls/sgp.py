"""Scaled gradient projection outer loops.

Each outer iteration minimises a strongly convex quadratic model of the
objective around the current iterate (see :mod:`ssnnls.qp`) and accepts
the result either unconditionally (problem 2, fixed diagonal scaling,
justified by the concavity of the smoothed penalty on the orthant) or
through a sufficient-decrease test that adapts the scaling (problem 1,
where the Hoyer ratio's curvature is unbounded near the floors).

Both problems minimise their model exactly at every step by an active
set on the dictionary's cached Gram matrix, which factors only the small
block on the current support.  Each solve checks its data, its
configuration and its start (``x0``, and problem 1's ``d0``) and forms
A'b once; the objective evaluations it then makes take those arrays and
check nothing.  The model goes to :mod:`ssnnls.qp` in standard form,
z'(G + 2C)z / 2 - q'z with C = cI and
q = (G + 2C) a - grad F(a) = A'b - grad P(a) + 2Ca (and
q_d = 2c a_d - grad_d P(a) for problem 1's dummies), as the arrays G, q
and q_d and the scalar 2c, so the fit's gradient G a - A'b is never
formed: an objective evaluation forms only the residual, from the
iterate's nonzero columns, and the penalty's gradient
(:mod:`ssnnls.core`); at the constant 0.1 start the residual comes from
A 1, which :class:`~ssnnls.core.GroupedDictionary` keeps beside ``gram``.
That leaves one dense pass over A per solve, A'b; after it a step costs
what its support costs.  Problem 2's active set needs numpy alone;
problem 1's solves its free blocks through LAPACK and loads SciPy on
its first call.  A step that cannot descend ends either run as
``energy_tol`` (for problem 2, one whose decrease is within
``NO_DESCENT_ULPS`` rounding units of F), and an active set's
:class:`~ssnnls.errors.NonConvergenceError` propagates.

Problem 2's loop runs on a block of data vectors, one per row: a
single solve is the block of one, and a scene's pixels are one block
(:func:`solve_problem2` with a 2-d ``b``).  The block forms A'B in one
product, and each step forms every live vector's model term in one
array operation and evaluates every live candidate in one call; the
acceptance test and stop rule stay per vector, on Python scalars.  In a
block, a vector whose active set raises leaves as failed and the others
go on.
"""

import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import (GroupedDictionary, SparsityConfig, checked_data, eval_objective_p1,
                   eval_objective_p2)
from .errors import ConfigError, NonConvergenceError
from .qp import model_cholesky, model_value, solve_qp_p1, solve_qp_p2

TERM_STEP = "step_tol"
TERM_ENERGY = "energy_tol"
TERM_MAX_OUTER = "max_outer"
TERM_FAILED = "nonconvergence"


# Algorithm constants of the outer loops, read at call time.  Problem 1
# scales its model shift by a dynamic factor c_n starting at C0: a
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
# Problem 2 takes a candidate that lowers F by at most this many rounding
# units of F for no descent.  Such a change is rounding: a block's products
# round otherwise than a single solve's, so accepting it would make a
# vector's step count depend on the block it is solved in.
NO_DESCENT_ULPS = 16.0

_EPS = float(np.finfo(float).eps)


@dataclass
class SgpParams:
    """Outer-loop settings.

    ``c_matrix_scale`` is c in the model shift C = cI; problem 2 keeps C
    fixed and allows c = 0 when A has full column rank, problem 1 needs
    c > 0 and multiplies it by the dynamic factor described at ``C0``,
    ``SIGMA``, ``XI1``, ``XI2``, ``RHO`` and ``MAX_REJECTIONS``.  The loop
    stops when the sup-norm step falls to ``TOL_STEP``, when the objective
    changes by at most ``tol_energy`` relative to its new value
    (``|F_old - F_new| <= tol_energy |F_new|``), or at ``max_outer``.
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

    ``x`` is the final coefficient vector and ``d`` problem 1's final
    dummies, None for problem 2.  ``inner_iters_total`` sums the
    active-set iterations (passive-block solves, see
    :func:`ssnnls.qp.solve_qp_p1` and :func:`ssnnls.qp.solve_qp_p2`) of
    every model solve: for problem 2 the solves that start a step from
    the anchor's support too, for problem 1 those of rejected candidates,
    for both problems those of the unaccepted last step.

    A block solve of problem 2 (:func:`solve_problem2` on a 2-d ``b``)
    reports the block: ``x`` holds one solution per column, ``outer_iters``
    and ``inner_iters_total`` are the sums over its columns, and
    ``columns`` holds each column's own report (its ``x`` a view of that
    column); the block's own traces stay empty and its ``termination`` is
    empty too.  ``failed`` lists the (column, message) of each column
    whose active set raised :class:`NonConvergenceError`; that column of
    ``x`` is zero and its report ends as ``nonconvergence`` after the
    steps it made.  A single solve leaves ``columns`` None and ``failed``
    empty.
    """

    x: np.ndarray
    d: Optional[np.ndarray] = None
    objective_trace: List[float] = field(default_factory=list)
    c_trace: List[float] = field(default_factory=list)
    step_trace: List[float] = field(default_factory=list)
    outer_iters: int = 0
    inner_iters_total: int = 0
    termination: str = TERM_MAX_OUTER
    columns: Optional[List["SolveReport"]] = None
    failed: List[Tuple[int, str]] = field(default_factory=list)


def _checked_start(name: str, value: Optional[np.ndarray], size: int,
                   default: float) -> np.ndarray:
    """``value`` clipped at 0, or ``default`` on every entry when None.

    ValueError naming ``name`` unless ``value`` holds ``size`` finite values.
    """
    if value is None:
        return np.full(size, default)
    value = np.asarray(value, dtype=float)
    if value.shape != (size,):
        raise ValueError(f"{name} must have {size} entries, got shape {value.shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return np.maximum(value, 0.0)


def _feasible_p1_init(dct: GroupedDictionary, cfg: SparsityConfig, x0: Optional[np.ndarray],
                      d0: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``x0`` (default 0.1) and ``d0`` (default 0), checked and made feasible for problem 1.

    Both are checked and clipped by :func:`_checked_start`.  Each group
    short of its floor is raised evenly onto it, so x alone meets every
    floor, and d is scaled down onto the budget when sum(d / eps) exceeds
    it.
    """
    m = dct.n_groups
    x = _checked_start("x0", x0, dct.n_columns, 0.1)
    d = _checked_start("d0", d0, m, 0.0)
    for j in range(m):
        sl = dct.group_slice(j)
        short = float(cfg.eps[j]) - float(np.sum(x[sl]))
        if short > 0:
            x[sl] += short / (sl.stop - sl.start)
    used, budget = float(np.sum(d / cfg.eps)), cfg.budget(m)
    if used > budget:
        d *= budget / used
    return x, d


def solve_problem2(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                   params: Optional[SgpParams] = None,
                   x0: Optional[np.ndarray] = None) -> SolveReport:
    """Minimise the smoothed l1 - l2 objective over the orthant (problem 2).

    The run starts from ``x0`` clipped at 0, by default 0.1 on every
    column.  The diagonal scaling stays fixed at ``c_matrix_scale``, so
    every step solves its model exactly by an active set on the
    dictionary's cached Gram matrix (:func:`ssnnls.qp.solve_qp_p2`), each
    step's active set started from the anchor's support when it is
    sparse.  A model minimiser that does not lower the objective by more
    than ``NO_DESCENT_ULPS`` rounding units of it ends the run as
    ``energy_tol`` at the anchor, so in a block each vector takes the
    steps it takes alone.  A :class:`NonConvergenceError` from a step's
    active set propagates; an ``x0`` of the wrong length or with a NaN or
    infinite entry is a ``ValueError`` before any evaluation.

    A 2-d ``b`` of shape (rows, P) is a block of P data vectors solved in
    lockstep, each from ``x0``: the data and the config are checked and
    A'B formed once, and each step builds every live column's model term
    in one array operation, runs each column's active set, and evaluates
    every live column's candidate in one call.  Each column keeps its own
    acceptance test, stop rule and step count, and leaves the live set
    when it stops; a column whose active set raises
    :class:`NonConvergenceError` leaves it as failed and the others go
    on.  The block's report is described at :class:`SolveReport`.
    """
    params = params or SgpParams()
    block = np.ndim(b) == 2
    b, atb = checked_data(dct, b, cfg)
    if not block:  # one vector per row: a single solve is the block of one
        b, atb = b[None], atb[None]
    x = np.empty_like(atb)
    x[:] = _checked_start("x0", x0, dct.n_columns, 0.1)

    gram = dct.gram
    if not params.c_matrix_scale > 0:
        # with no shift the model is strongly convex only if A has full column rank
        model_cholesky(gram)
    diag = 2.0 * params.c_matrix_scale
    ev = eval_objective_p2(dct, b, x, cfg)
    values = ev.value.tolist()
    out = np.zeros_like(x)  # a failed column stays zero
    reports = [SolveReport(row, objective_trace=[value]) for row, value in zip(out, values)]
    failed: List[Tuple[int, str]] = []
    live = list(range(len(reports)))  # the column each row of the live arrays solves
    for _ in range(params.max_outer):
        if not live:
            break
        # q = (G + 2C) x - grad F(x), in which G x cancels
        q = atb - ev.penalty_grad + diag * x
        y = np.empty_like(x)
        for i, p in enumerate(live):
            try:
                y[i], iters = solve_qp_p2(gram, diag, q[i], x[i] > 0.0)
            except NonConvergenceError as exc:
                if not block:
                    raise
                failed.append((p, str(exc)))
                reports[p].termination = TERM_FAILED
                y[i], iters = x[i], 0
            reports[p].inner_iters_total += iters
        ev_y = eval_objective_p2(dct, b, y, cfg)
        steps = np.abs(y - x).max(axis=1, initial=0.0).tolist()
        keep = []
        for i, (p, value, new) in enumerate(zip(live, values, ev_y.value.tolist())):
            rep = reports[p]
            if rep.termination == TERM_FAILED:  # its active set raised this step
                continue
            if new > value - NO_DESCENT_ULPS * _EPS * abs(value):
                rep.termination = TERM_ENERGY
                out[p] = x[i]
                continue
            step = steps[i]
            rep.objective_trace.append(new)
            rep.c_trace.append(params.c_matrix_scale)
            rep.step_trace.append(step)
            rep.outer_iters += 1
            values[i] = new
            if step <= TOL_STEP:
                rep.termination = TERM_STEP
            elif abs(value - new) <= params.tol_energy * abs(new):
                rep.termination = TERM_ENERGY
            else:
                keep.append(i)
                continue
            out[p] = y[i]
        x, ev = y, ev_y
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            if live:
                b, atb, x = b[keep], atb[keep], x[keep]
                ev.penalty_grad = ev.penalty_grad[keep]
                values = [values[i] for i in keep]
    for i, p in enumerate(live):
        out[p] = x[i]
    if not block:
        return reports[0]
    return SolveReport(out.T, outer_iters=sum(r.outer_iters for r in reports),
                       inner_iters_total=sum(r.inner_iters_total for r in reports),
                       termination="", columns=reports, failed=failed)


def solve_problem1(dct: GroupedDictionary, b: np.ndarray, cfg: SparsityConfig,
                   params: Optional[SgpParams] = None, x0: Optional[np.ndarray] = None,
                   d0: Optional[np.ndarray] = None) -> SolveReport:
    """Minimise the Hoyer-ratio objective with dummy variables (problem 1).

    The run starts from ``x0`` (default 0.1 on every column) and ``d0``
    (default 0), made feasible in closed form by :func:`_feasible_p1_init`.
    Every step solves its model exactly by a primal active set on the
    dictionary's cached Gram matrix (:func:`ssnnls.qp.solve_qp_p1`).
    Candidates must pass the sufficient-decrease test; rejections inflate
    the diagonal scaling by ``XI2`` and re-solve from the same anchor.  A
    model minimiser no better than the anchor (model value >= 0) ends the
    run as ``energy_tol``.  A :class:`NonConvergenceError` from a step's
    active set propagates; an ``x0`` or ``d0`` of the wrong length or with
    a NaN or infinite entry, and a zero ``c_matrix_scale`` (the dummies'
    only curvature), are a ``ValueError`` before any evaluation.
    """
    params = params or SgpParams()
    if not params.c_matrix_scale > 0:
        raise ValueError("problem 1's model needs a positive shift for the dummies' "
                         "curvature; increase c_matrix_scale")
    b, atb = checked_data(dct, b, cfg)
    budget = cfg.budget(dct.n_groups)

    x, d = _feasible_p1_init(dct, cfg, x0, d0)

    gram = dct.gram
    report = SolveReport(x, d)
    c = C0
    rejections = 0

    ev = eval_objective_p1(dct, b, x, d, cfg)
    report.objective_trace.append(ev.value)
    while report.outer_iters < params.max_outer:
        shift = c * params.c_matrix_scale
        # q = (G + 2C) x - grad F(x), in which G x cancels; the dummies
        # enter F through the penalty alone
        q, q_d = atb - ev.penalty_grad + 2.0 * shift * x, 2.0 * shift * d - ev.grad_d
        y, y_d, iters = solve_qp_p1(gram, 2.0 * shift, q, dct.offsets, cfg.eps, q_d, budget)
        report.inner_iters_total += iters
        model = model_value(gram, shift, q, q_d, x, d, y, y_d)
        if model >= 0.0:
            report.termination = TERM_ENERGY
            break
        ev_y = eval_objective_p1(dct, b, y, y_d, cfg)
        if ev_y.value - ev.value > SIGMA * model:
            c *= XI2
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise NonConvergenceError(
                    f"no sufficient decrease after {rejections} scaling increases",
                    iterations=report.outer_iters, trace=report.objective_trace)
            continue
        step = max(float(np.max(np.abs(y - x))), float(np.max(np.abs(y_d - d))))
        x, d = y, y_d
        rejections = 0
        report.objective_trace.append(ev_y.value)
        report.c_trace.append(shift)
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
    report.x, report.d = x, d
    return report
