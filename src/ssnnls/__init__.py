"""Structured-sparse non-negative least squares.

Solvers for demixing problems of the form

    min 0.5 |Ax - b|^2 + sum_j gamma_j R_j(x_j) + gamma_0 R_0(x)

over the non-negative orthant, where the penalties R are the Hoyer ratio
``|x|_1 / |x|_2`` (problem 1, with dummy variables keeping the ratio
defined) or the smoothed difference ``|x|_1 - |x|_2`` (problem 2), plus
NNLS / l1 / l0 baselines and two application pipelines: spectral fitting
under wavelength misalignment and hyperspectral demixing.
"""

from .baselines import PdParams, l1_bregman, l1_penalized, nnls, penalty_decomposition_l0
from .core import (GroupedCoeffs, GroupedDictionary, ObjectiveEval, SparsityConfig,
                   eval_objective_p1, eval_objective_p2, normalize_columns)
from .errors import ConfigError, DegenerateColumnError, NonConvergenceError, SsnnlsError
from .penalties import PenaltyValue, diff_l1_l2, hoyer_ratio, huber
from .projections import (SimplexMode, SimplexSpec, project_dummy_budget, project_group_floor,
                          project_nonneg, project_simplex)
from .qp import AdmmParams, QpSolution, QpSubproblem, solve_qp_p1, solve_qp_p2
from .sgp import SgpParams, SolveReport, check_descent_estimate, solve_problem1, solve_problem2

__version__ = "0.1.0"

__all__ = [
    "AdmmParams", "ConfigError", "DegenerateColumnError", "GroupedCoeffs",
    "GroupedDictionary", "NonConvergenceError", "ObjectiveEval", "PdParams",
    "PenaltyValue", "QpSolution", "QpSubproblem", "SgpParams",
    "SimplexMode", "SimplexSpec", "SolveReport", "SparsityConfig", "SsnnlsError",
    "check_descent_estimate", "diff_l1_l2", "eval_objective_p1", "eval_objective_p2",
    "hoyer_ratio", "huber", "l1_bregman", "l1_penalized", "nnls", "normalize_columns",
    "penalty_decomposition_l0", "project_dummy_budget", "project_group_floor",
    "project_nonneg", "project_simplex", "solve_problem1", "solve_problem2",
    "solve_qp_p1", "solve_qp_p2",
]
