"""Independent reference solver: accelerated proximal gradient (FISTA).

It referees the block descent solvers, so it deliberately shares nothing
with the secular-equation machinery; only the problem representation and
the certificate check are reused.  ``prox_group_norm`` also serves as
the exact group update in the special case of a design with orthonormal
columns within each group.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .certificates import certificate
from .problem import (Coefficients, _check_stopping, _start_point, group_norms,
                      objective, penalty_weights, soft_threshold, vector_norm)

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
    """prox of t*lam*||.||_2: z scaled by 1 - t*lam / max(||z||, t*lam)."""
    z = np.asarray(z, dtype=np.float64)
    return z * (1.0 - t * lam / max(vector_norm(z), t * lam or 1.0))


def lipschitz_constant(design):
    """Largest eigenvalue of X'X, from the smaller of X'X and XX'."""
    n, p = design.shape
    gram = design @ design.T if n < p else design.T @ design
    return float(np.linalg.eigvalsh(gram)[-1])


def _prox_all(problem, lam1, lam2, z, t):
    """prox of t*(lam1*sum_k ||.||_2 + lam2*||.||_1), all groups in one pass;
    as in ``prox_group_norm``, a t*lam1 that underflows to 0 shrinks nothing."""
    h = soft_threshold(z, t * lam2)
    norms = group_norms(h, problem._offsets[:-1])
    return h * np.repeat(1.0 - t * lam1 / np.maximum(norms, t * lam1 or 1.0),
                         problem.group_sizes)


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
    x = _start_point(problem, initial).values
    lip = lipschitz_constant(problem.design)
    if lip == 0.0:
        return Coefficients.zeros(problem.group_sizes), 0
    step = 1.0 / lip
    design, y = problem.design, problem.y

    z = x
    momentum = 1.0
    obj_x = objective(problem, penalty, Coefficients(x, problem.group_sizes))
    for it in range(1, options.max_iters + 1):
        for point in (z, x):
            grad = -(design.T @ (y - design @ point))
            x_new = _prox_all(problem, lam1, lam2, point - step * grad, step)
            beta_new = Coefficients(x_new, problem.group_sizes)
            obj_new = objective(problem, penalty, beta_new)
            if obj_new <= obj_x:
                break
            # momentum overshoot: restart with a plain proximal step from x
            momentum = 1.0
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

