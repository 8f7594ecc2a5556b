"""Independent reference solver: accelerated proximal gradient (FISTA).

It referees the block descent solvers, so it deliberately shares no
numerical code with the secular-equation machinery: from the sweep engine
it takes only the two data types of the solver contract, ``SolveOptions``
and ``SolveTrace``, and otherwise reuses the problem representation and
the certificate check.  ``prox_group_norm`` also serves as the exact group
update in the special case of a design with orthonormal columns within
each group.
"""

import time

import numpy as np

from .certificates import certificate
from .group_lasso import SolveOptions, SolveTrace
from .problem import (Coefficients, _start_point, group_norms, objective,
                      penalty_weights, soft_threshold, vector_norm)

# fista_solve builds its certificate (two design products) every
# CHECK_EVERY iterations and at max_sweeps, not at every iteration
CHECK_EVERY = 10


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


def fista_solve(problem, penalty, options=None):
    """Accelerated proximal gradient descent on either objective.

    Runs from ``options.initial`` (zero when None) with step 1/Lipschitz,
    restarting the momentum whenever the objective would increase (the
    restarted step is a plain proximal step from the current iterate,
    which cannot increase it).  Stops once the certificate's ``kkt_ratio``
    drops to ``options.tol``, checked every CHECK_EVERY iterations and at
    ``options.max_sweeps``, the iteration cap.  The ratio is scale-free:
    scaling y and the penalty weights by s leaves it unchanged.

    Returns (Coefficients, SolveTrace) as the exact solvers do: one
    objective per iteration after the start, ``sweeps`` and
    ``full_sweeps`` both the iteration count (every iteration touches
    every group), and ``converged`` true when the returned point passed
    the certificate, even on the last allowed iteration.  A miss is
    reported there, not raised or warned about.
    """
    start = time.perf_counter()
    lam1, lam2 = penalty_weights(penalty)
    options = options or SolveOptions()
    sizes = problem.group_sizes
    x = _start_point(problem, options.initial).values
    lip = lipschitz_constant(problem.design)
    if lip == 0.0:
        x = np.zeros_like(x)  # X = 0: zero fits as well as any point
    objectives = [objective(problem, penalty, Coefficients(x, sizes))]
    step = 1.0 / (lip or 1.0)
    design, y = problem.design, problem.y

    z = x
    momentum = 1.0
    it, converged = 0, lip == 0.0
    while not converged and it < options.max_sweeps:
        it += 1
        for point in (z, x):
            grad = -(design.T @ (y - design @ point))
            x_new = _prox_all(problem, lam1, lam2, point - step * grad, step)
            obj_new = objective(problem, penalty, Coefficients(x_new, sizes))
            if obj_new <= objectives[-1]:
                break
            # momentum overshoot: restart with a plain proximal step from x
            momentum = 1.0
        momentum_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2))
        z = x_new + ((momentum - 1.0) / momentum_new) * (x_new - x)
        x, momentum = x_new, momentum_new
        objectives.append(obj_new)
        if it % CHECK_EVERY == 0 or it == options.max_sweeps:
            converged = certificate(problem, penalty, Coefficients(
                x, sizes)).kkt_ratio <= options.tol
    trace = SolveTrace(objective_per_sweep=np.asarray(objectives), sweeps=it,
                       full_sweeps=it, converged=bool(converged),
                       wall_time=time.perf_counter() - start)
    return Coefficients(x, sizes), trace
