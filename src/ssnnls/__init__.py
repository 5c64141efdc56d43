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
from .core import GroupedDictionary, SparsityConfig, normalize_columns
from .errors import ConfigError, DegenerateColumnError, NonConvergenceError, SsnnlsError
from .qp import AdmmParams, solve_qp_p1, solve_qp_p2
from .sgp import SgpParams, SolveReport, solve_problem1, solve_problem2

__version__ = "0.1.0"

__all__ = [
    "AdmmParams", "ConfigError", "DegenerateColumnError", "GroupedDictionary",
    "NonConvergenceError", "PdParams", "SgpParams", "SolveReport", "SparsityConfig",
    "SsnnlsError",
    "l1_bregman", "l1_penalized", "nnls", "normalize_columns",
    "penalty_decomposition_l0", "solve_problem1", "solve_problem2",
    "solve_qp_p1", "solve_qp_p2",
]
