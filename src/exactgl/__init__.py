"""Exact group-wise coordinate descent for the group lasso and sparse group lasso.

The group lasso objective 0.5*||y - X b||^2 + lam * sum_k ||b_k||_2 is
minimized by cycling through the coefficient groups and setting each to
its exact optimum given the others, found by a single univariate root
find on a secular equation in the eigenbasis of the group's Gram matrix.
The sparse variant adds a 1-norm penalty and recovers the same exact
update by searching over the optimum's sign pattern within the group.

Also here: subgradient optimality certificates with computable error
bounds on the fitted values, warm-started penalty paths, an independent
proximal-gradient reference solver, a dense-grid ground truth for tiny
problems, and a simulated-data generator with two-level correlation
structure.
"""

from .baselines import OracleOptions, fista_solve, grid_refine
from .certificates import OptimalityCertificate, accuracy_bounds, certificate
from .errors import (DimensionMismatchError, GroupSizeGuardError,
                     SecularRootError, SignSearchError)
from .group_lasso import (SolveOptions, SolveTrace, lambda_max,
                          solve_group_lasso, solve_path)
from .problem import (Coefficients, GroupedProblem, GroupLassoPenalty,
                      SparseGroupLassoPenalty, objective)
from .simulate import (PenaltyLadder, SimulationConfig, bounds_for_ladder,
                       penalty_ladder, sample_problem)
from .sparse_group_lasso import solve_sparse_group_lasso
from .spectra import SpectrumCache

__version__ = "0.1.0"

__all__ = [
    "Coefficients", "DimensionMismatchError", "GroupLassoPenalty",
    "GroupSizeGuardError", "GroupedProblem", "OptimalityCertificate",
    "OracleOptions", "PenaltyLadder", "SecularRootError", "SignSearchError",
    "SimulationConfig", "SolveOptions", "SolveTrace",
    "SparseGroupLassoPenalty", "SpectrumCache", "accuracy_bounds",
    "bounds_for_ladder", "certificate", "fista_solve", "grid_refine",
    "lambda_max", "objective", "penalty_ladder", "sample_problem",
    "solve_group_lasso", "solve_path", "solve_sparse_group_lasso",
]
