"""Simulated grouped-regression data with a two-level correlation structure.

Rows of the design are drawn i.i.d. from N(0, Sigma) where Sigma has
compound-symmetry blocks: correlation ``a`` between covariates of the same
group, scaled by ``b`` between covariates of different groups,

    Sigma = B kron C,   B = (1-b) I_K + b 11',   C = (1-a) I_g + a 11'.

Both factors are identity plus rank one, with closed-form square roots
s1 I + (s2 - s1) 11'/m, so the sampling factor F = sqrt(B) kron sqrt(C)
is never formed: it is applied to the n x p draw in place, one axis of
its (n, K, g) view at a time, in O(np) (Van Loan 2000, "The ubiquitous
Kronecker product", J. Comput. Appl. Math. 123).  The true signal puts
ones on the first two groups, and the noise variance is a fixed fraction
of the signal variance beta0' Sigma beta0, giving a high signal-to-noise
ratio.

Sampling uses numpy's PCG64 generator, so every dataset is reproducible
from its seed.
"""

from dataclasses import dataclass

import numpy as np

from .group_lasso import lambda_max
from .problem import Coefficients, GroupedProblem, _check_count, _check_penalties

NOISE_SCALE_FACTOR = 0.01     # noise variance as a fraction of signal variance


@dataclass(frozen=True)
class SimulationConfig:
    """Shape, correlation levels, and RNG seed of one dataset."""

    n_samples: int = 50
    n_groups: int = 10
    group_size: int = 10
    a: float = 0.5
    b: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "n_groups", "group_size", "seed"):
            _check_count(name, getattr(self, name), 0 if name == "seed" else 1)
        if not (0.0 <= self.a < 1.0 and 0.0 <= self.b < 1.0):
            raise ValueError("correlations a, b must lie in [0, 1)")


def _apply_factor(w, config):
    """Overwrite each length-p row of ``w`` with F times it, in O(w.size).

    Along an axis of length m, sqrt((1-rho) I + rho 11') maps w to
    s1 w + (s2 - s1) mean(w) with s1 = sqrt(1-rho), s2 = sqrt(1+(m-1)rho):
    eigenvalue s1 off the ones direction and s2 on it.
    """
    cube = w.reshape(-1, config.n_groups, config.group_size)
    for axis, rho in ((2, config.a), (1, config.b)):
        m = cube.shape[axis]
        s1, s2 = np.sqrt(1.0 - rho), np.sqrt(1.0 + (m - 1) * rho)
        shift = cube.mean(axis=axis, keepdims=True)
        shift *= s2 - s1
        cube *= s1
        cube += shift
    return w


def true_coefficients(config):
    """Ones on the first two groups (or the only group when K = 1)."""
    beta = Coefficients.zeros([config.group_size] * config.n_groups)
    for k in range(min(2, config.n_groups)):
        beta.set_group(k, 1.0)
    return beta


def sample_problem(config):
    """Draw (problem, true coefficients) deterministically from the seed.

    The response is X beta0 plus N(0, c^2) noise with
    c^2 = NOISE_SCALE_FACTOR * beta0' Sigma beta0.
    """
    rng = np.random.default_rng(config.seed)
    p = config.n_groups * config.group_size
    X = _apply_factor(rng.standard_normal((config.n_samples, p)), config)
    beta0 = true_coefficients(config)
    signal_var = float(np.sum(_apply_factor(beta0.values.copy(), config) ** 2))
    c = np.sqrt(NOISE_SCALE_FACTOR * signal_var)
    y = X @ beta0.values + c * rng.standard_normal(config.n_samples)
    problem = GroupedProblem(y, X, [config.group_size] * config.n_groups)
    return problem, beta0


@dataclass
class PenaltyLadder:
    """Strictly decreasing penalties, with matching bounds once solved."""

    values: np.ndarray
    bounds: np.ndarray | None = None

    def __post_init__(self):
        self.values = _check_penalties(self.values)


def penalty_ladder(problem, length=5):
    """The geometric ladder {lambda_max * 2^-i} for i = 1..length."""
    _check_count("ladder length", length, 1)
    top = lambda_max(problem)
    if top == 0.0:
        raise ValueError("lambda_max is zero; the problem is degenerate")
    return PenaltyLadder(values=top * 0.5 ** np.arange(1, length + 1))


def bounds_for_ladder(ladder, solutions):
    """Fill in the constraint bound M = sum_k ||b_k|| matching each rung."""
    if len(solutions) != ladder.values.shape[0]:
        raise ValueError("need one solution per ladder rung")
    bounds = np.array([beta.group_norms().sum() for beta in solutions])
    return PenaltyLadder(values=ladder.values.copy(), bounds=bounds)
