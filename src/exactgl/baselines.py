"""Independent reference solver: accelerated proximal gradient (FISTA).

It referees the block descent solvers, so it deliberately shares nothing
with the secular-equation machinery; only the problem representation and
the certificate check are reused.  The proximal operators also serve as
the exact group update in the special case of a design with orthonormal
columns within each group.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .certificates import certificate
from .problem import (Coefficients, _check_beta, _check_stopping, objective,
                      penalty_weights, soft_threshold)

# fista_solve builds its certificate (two design products) every
# CHECK_EVERY iterations and at max_iters, not at every iteration
CHECK_EVERY = 10


@dataclass
class OracleOptions:
    """Stopping controls for the proximal-gradient reference solver.

    ``tol`` is an absolute threshold on the certificate norm.
    """

    tol: float = 1e-8
    max_iters: int = 200_000

    def __post_init__(self):
        _check_stopping(self.tol, "max_iters", self.max_iters)


def prox_group_norm(z, t, lam):
    """prox of t*lam*||.||_2: block soft threshold z*max(0, 1 - t*lam/||z||)."""
    z = np.asarray(z, dtype=np.float64)
    norm = float(np.linalg.norm(z))
    if norm == 0.0:
        return np.zeros_like(z)
    return z * max(0.0, 1.0 - t * lam / norm)


def prox_sparse_group(z, t, lam1, lam2):
    """prox of t*(lam1*||.||_2 + lam2*||.||_1): soft threshold then block shrink."""
    return prox_group_norm(soft_threshold(z, t * lam2), t, lam1)


def lipschitz_constant(design):
    """Largest eigenvalue of X'X, from the smaller of X'X and XX'."""
    n, p = design.shape
    gram = design @ design.T if n < p else design.T @ design
    return float(np.linalg.eigvalsh(gram)[-1])


def _prox_all(problem, lam1, lam2, z, t):
    out = np.empty_like(z)
    for k in range(problem.n_groups):
        sl = problem.group_slice(k)
        out[sl] = prox_sparse_group(z[sl], t, lam1, lam2)
    return out


def fista_solve(problem, penalty, options=None, initial=None):
    """Accelerated proximal gradient descent on either objective.

    Runs from zero (or ``initial``) with step 1/Lipschitz, restarting the
    momentum whenever the objective would increase (the restarted step is
    a plain proximal step from the current iterate, which cannot increase
    it).  Terminates once the certificate norm drops to ``options.tol``,
    checked every CHECK_EVERY iterations and at ``max_iters``.

    Returns (Coefficients, iterations).  Hitting ``max_iters`` without
    meeting ``tol`` leaves the best iterate in place and warns; a solve that
    meets ``tol`` on its last allowed iteration also returns ``max_iters``,
    so the certificate, not the count, tells whether it converged.
    """
    lam1, lam2 = penalty_weights(penalty)
    options = options or OracleOptions()
    if initial is not None:
        _check_beta(problem, initial)
    x = np.zeros(problem.n_features) if initial is None else initial.values.copy()
    if not np.isfinite(x).all():
        raise ValueError("initial coefficients must be finite (no NaN or inf)")
    lip = lipschitz_constant(problem.design)
    if lip == 0.0:
        return Coefficients.zeros(problem.group_sizes), 0
    step = 1.0 / lip
    design, y = problem.design, problem.y

    z = x
    momentum = 1.0
    obj_x = objective(problem, penalty, Coefficients(x, problem.group_sizes))
    for it in range(1, options.max_iters + 1):
        grad = -(design.T @ (y - design @ z))
        x_new = _prox_all(problem, lam1, lam2, z - step * grad, step)
        beta_new = Coefficients(x_new, problem.group_sizes)
        obj_new = objective(problem, penalty, beta_new)
        if obj_new > obj_x:
            # momentum overshoot: restart with a plain proximal step from x
            momentum = 1.0
            grad = -(design.T @ (y - design @ x))
            x_new = _prox_all(problem, lam1, lam2, x - step * grad, step)
            beta_new = Coefficients(x_new, problem.group_sizes)
            obj_new = objective(problem, penalty, beta_new)
        momentum_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2))
        z = x_new + ((momentum - 1.0) / momentum_new) * (x_new - x)
        x, obj_x, momentum = x_new, obj_new, momentum_new
        if ((it % CHECK_EVERY == 0 or it == options.max_iters)
                and certificate(problem, penalty, beta_new).w_norm <= options.tol):
            return beta_new, it
    warnings.warn(
        f"proximal gradient stopped at max_iters={options.max_iters} with "
        "certificate above tol", RuntimeWarning)
    return Coefficients(x, problem.group_sizes), options.max_iters

