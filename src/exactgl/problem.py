"""Grouped regression problems and the penalized least-squares objectives.

A problem couples a response ``y`` (length n) with a design matrix ``X``
(n x p) whose columns are partitioned into K consecutive groups of sizes
(p_1, ..., p_K).  Two penalties are supported:

    group lasso         0.5 * ||y - X b||^2 + lam * sum_k ||b_k||_2
    sparse group lasso  0.5 * ||y - X b||^2 + lam1 * sum_k ||b_k||_2
                                            + lam2 * ||b||_1

where b_k is the slice of the coefficient vector belonging to group k.
Unpenalized covariates are assumed to have been regressed out beforehand,
and heterogeneous per-group weights to have been absorbed by rescaling
the groups, so a single weight per norm suffices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


class GroupedProblem:
    """Response, block-partitioned design matrix, and the partition itself.

    Non-finite entries in ``y`` or the design raise ValueError up front.
    Immutable after construction; safe to share across threads read-only.
    The design is stored column-major so each group's columns form a
    contiguous slice.
    """

    def __init__(self, y, design, group_sizes):
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        design = np.asfortranarray(design, dtype=np.float64)
        group_sizes = np.atleast_1d(np.asarray(group_sizes, dtype=np.int64))
        if y.ndim != 1 or design.ndim != 2 or group_sizes.ndim != 1:
            raise DimensionMismatchError(
                "y must be a vector, design a matrix, group_sizes a vector")
        if y.shape[0] != design.shape[0]:
            raise DimensionMismatchError(
                f"len(y)={y.shape[0]} does not match design rows {design.shape[0]}")
        if y.shape[0] < 1 or group_sizes.shape[0] < 1:
            raise DimensionMismatchError("need at least one sample and one group")
        if np.any(group_sizes < 1):
            raise DimensionMismatchError("every group must have at least one column")
        if int(group_sizes.sum()) != design.shape[1]:
            raise DimensionMismatchError(
                f"group sizes sum to {int(group_sizes.sum())} "
                f"but design has {design.shape[1]} columns")
        if not (np.isfinite(y).all() and np.isfinite(design).all()):
            raise ValueError("y and design must be finite (no NaN or inf)")
        self.y = y
        self.design = design
        self.group_sizes = group_sizes
        self._offsets = np.concatenate(([0], np.cumsum(group_sizes)))

    @property
    def n_samples(self):
        return self.design.shape[0]

    @property
    def n_features(self):
        return self.design.shape[1]

    @property
    def n_groups(self):
        return self.group_sizes.shape[0]

    def group_slice(self, k):
        """Column range of group ``k`` (0-based) within the design."""
        if not 0 <= k < self.n_groups:
            raise IndexError(f"group index {k} out of range [0, {self.n_groups})")
        return slice(int(self._offsets[k]), int(self._offsets[k + 1]))

    def group_matrix(self, k):
        """View of the columns of group ``k``."""
        return self.design[:, self.group_slice(k)]


class Coefficients:
    """Coefficient vector carrying the same block partition as its problem."""

    def __init__(self, values, group_sizes):
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        group_sizes = np.atleast_1d(np.asarray(group_sizes, dtype=np.int64))
        if values.ndim != 1 or group_sizes.ndim != 1 or group_sizes.shape[0] < 1:
            raise DimensionMismatchError("values and group_sizes must be vectors")
        if np.any(group_sizes < 1):
            raise DimensionMismatchError("every group must have at least one entry")
        if values.shape[0] != int(group_sizes.sum()):
            raise DimensionMismatchError(
                f"{values.shape[0]} values do not fill groups of total size "
                f"{int(group_sizes.sum())}")
        self.values = values
        self.group_sizes = group_sizes
        self._offsets = np.concatenate(([0], np.cumsum(group_sizes)))

    @classmethod
    def zeros(cls, group_sizes):
        group_sizes = np.atleast_1d(np.asarray(group_sizes, dtype=np.int64))
        return cls(np.zeros(int(group_sizes.sum())), group_sizes)

    @property
    def n_features(self):
        return self.values.shape[0]

    @property
    def n_groups(self):
        return self.group_sizes.shape[0]

    def group(self, k):
        if not 0 <= k < self.n_groups:
            raise IndexError(f"group index {k} out of range [0, {self.n_groups})")
        return self.values[int(self._offsets[k]):int(self._offsets[k + 1])]

    def set_group(self, k, vals):
        self.group(k)[:] = vals

    def copy(self):
        return Coefficients(self.values.copy(), self.group_sizes)

    def group_norms(self):
        return np.array([np.linalg.norm(self.group(k)) for k in range(self.n_groups)])


@dataclass(frozen=True)
class GroupLassoPenalty:
    """Weight on the sum of per-group 2-norms."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if not self.lam > 0:
            raise ValueError("group lasso penalty weight must be positive")


@dataclass(frozen=True)
class SparseGroupLassoPenalty:
    """Weights on the sum of per-group 2-norms (lam1) and on the 1-norm (lam2).

    lam2 = 0 reduces to the plain group lasso, so both weights are
    required to be strictly positive here.
    """

    lam1: float
    lam2: float

    def __post_init__(self):
        object.__setattr__(self, "lam1", float(self.lam1))
        object.__setattr__(self, "lam2", float(self.lam2))
        if not (self.lam1 > 0 and self.lam2 > 0):
            raise ValueError("sparse group lasso weights must both be positive")


def soft_threshold(x, threshold):
    """Shrink toward zero element-wise: sign(x) * max(|x| - threshold, 0)."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _check_beta(problem, beta):
    if beta.n_features != problem.n_features or not np.array_equal(
            beta.group_sizes, problem.group_sizes):
        raise DimensionMismatchError("coefficient partition does not match problem")


def penalty_term(penalty, beta):
    """Value of the penalty alone at ``beta``."""
    norms = beta.group_norms()
    if isinstance(penalty, GroupLassoPenalty):
        return penalty.lam * norms.sum()
    if isinstance(penalty, SparseGroupLassoPenalty):
        return (penalty.lam1 * norms.sum()
                + penalty.lam2 * np.abs(beta.values).sum())
    raise TypeError(f"unknown penalty type {type(penalty).__name__}")


def objective(problem, penalty, beta):
    """Penalized least-squares objective at ``beta``."""
    _check_beta(problem, beta)
    resid = problem.y - problem.design @ beta.values
    return 0.5 * float(resid @ resid) + penalty_term(penalty, beta)


def partial_residual(problem, beta, k):
    """Response minus the fitted contribution of every group except ``k``.

    Computed as (y - X b) + X_k b_k; solvers maintain the same quantity
    incrementally, refreshing once per sweep to cap drift.
    """
    _check_beta(problem, beta)
    full = problem.y - problem.design @ beta.values
    return full + problem.group_matrix(k) @ beta.group(k)
