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
    The inputs are copied once and the copies marked read-only, so the
    problem is immutable: later writes to the caller's arrays cannot reach
    it, and it is safe to share across threads.  The design is stored
    column-major so each group's columns form a contiguous slice, and the
    column views of the groups are built once here.
    """

    def __init__(self, y, design, group_sizes):
        y = np.array(y, dtype=np.float64, ndmin=1)
        design = np.array(design, dtype=np.float64, order="F")
        group_sizes = _group_sizes(group_sizes)
        if y.ndim != 1 or design.ndim != 2:
            raise DimensionMismatchError("y must be a vector, design a matrix")
        if y.shape[0] != design.shape[0]:
            raise DimensionMismatchError(
                f"len(y)={y.shape[0]} does not match design rows {design.shape[0]}")
        if y.shape[0] < 1:
            raise DimensionMismatchError("need at least one sample")
        if int(group_sizes.sum()) != design.shape[1]:
            raise DimensionMismatchError(
                f"group sizes sum to {int(group_sizes.sum())} "
                f"but design has {design.shape[1]} columns")
        if not (np.isfinite(y).all() and np.isfinite(design).all()):
            raise ValueError("y and design must be finite (no NaN or inf)")
        for arr in (y, design, group_sizes):
            arr.flags.writeable = False
        self.y = y
        self.design = design
        self.group_sizes = group_sizes
        self._offsets = np.concatenate(([0], np.cumsum(group_sizes)))
        self._blocks = tuple(design[:, self.group_slice(k)]
                             for k in range(self.n_groups))

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
        if not 0 <= k < self.n_groups:
            raise IndexError(f"group index {k} out of range [0, {self.n_groups})")
        return self._blocks[k]


class Coefficients:
    """Coefficient vector carrying the same block partition as its problem."""

    def __init__(self, values, group_sizes):
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        group_sizes = _group_sizes(group_sizes)
        if values.ndim != 1:
            raise DimensionMismatchError("values must be a vector")
        if values.shape[0] != int(group_sizes.sum()):
            raise DimensionMismatchError(
                f"{values.shape[0]} values do not fill groups of total size "
                f"{int(group_sizes.sum())}")
        self.values = values
        self.group_sizes = group_sizes
        self._offsets = np.concatenate(([0], np.cumsum(group_sizes)))

    @classmethod
    def zeros(cls, group_sizes):
        group_sizes = _group_sizes(group_sizes)
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
        # every group is nonempty, so one reduceat pass gives exactly K sums
        return np.sqrt(np.add.reduceat(self.values * self.values, self._offsets[:-1]))


@dataclass(frozen=True)
class GroupLassoPenalty:
    """Weight on the sum of per-group 2-norms."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if not 0 < self.lam < np.inf:
            raise ValueError("group lasso penalty weight must be positive and finite")


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
        if not (0 < self.lam1 < np.inf and 0 < self.lam2 < np.inf):
            raise ValueError(
                "sparse group lasso weights must both be positive and finite")


def soft_threshold(x, threshold):
    """Shrink toward zero element-wise: sign(x) * max(|x| - threshold, 0)."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _group_sizes(group_sizes):
    """A partition's sizes as a fresh int64 vector, nonempty and each >= 1.

    A size that the int64 conversion would change (3.7, NaN) raises
    ValueError instead of being truncated.
    """
    given = np.atleast_1d(np.asarray(group_sizes))
    with np.errstate(invalid="ignore"):
        sizes = given.astype(np.int64)
    if (sizes != given).any():
        raise ValueError(f"group sizes must be whole numbers, got {given.tolist()}")
    if sizes.ndim != 1 or not sizes.size or sizes.min() < 1:
        raise DimensionMismatchError(
            f"group sizes must form a nonempty vector of sizes >= 1: {given.tolist()}")
    return sizes


def _check_beta(problem, beta):
    if not isinstance(beta, Coefficients):
        raise TypeError(f"coefficients must be a Coefficients, got {type(beta).__name__}")
    if beta.n_features != problem.n_features or not np.array_equal(
            beta.group_sizes, problem.group_sizes):
        raise DimensionMismatchError("coefficient partition does not match problem")


def _check_count(name, value, minimum):
    """Reject a bool, a non-integer (numpy integers pass) or a value below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _check_stopping(tol, cap_name, cap):
    """A solver's stopping controls: finite positive ``tol``, integer cap >= 1."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _check_count(cap_name, cap, 1)


def _check_penalties(values):
    """A penalty sequence as a float array: 1-D, nonempty, positive, finite
    and strictly decreasing."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or not values.size:
        raise ValueError("penalty sequence must be 1-D and nonempty")
    if not np.all((values > 0) & (values < np.inf)):
        raise ValueError("penalties must be positive and finite")
    if np.any(np.diff(values) >= 0):
        raise ValueError("penalty sequence must be strictly decreasing")
    return values


def penalty_weights(penalty):
    """(lam1, lam2): the weights on sum_k ||b_k||_2 and on ||b||_1.

    The group lasso is the sparse group lasso with lam2 = 0; every reader
    of a penalty takes its weights from here.
    """
    if isinstance(penalty, GroupLassoPenalty):
        return penalty.lam, 0.0
    if isinstance(penalty, SparseGroupLassoPenalty):
        return penalty.lam1, penalty.lam2
    raise TypeError(f"unknown penalty type {type(penalty).__name__}")


def penalty_term(penalty, beta):
    """Value of the penalty alone at ``beta``."""
    lam1, lam2 = penalty_weights(penalty)
    return lam1 * beta.group_norms().sum() + lam2 * np.abs(beta.values).sum()


def objective(problem, penalty, beta):
    """Penalized least-squares objective at ``beta``."""
    _check_beta(problem, beta)
    resid = problem.y - problem.design @ beta.values
    return 0.5 * float(resid @ resid) + penalty_term(penalty, beta)
