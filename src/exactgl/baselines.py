"""Independent reference solvers: accelerated proximal gradient and dense grid.

These exist to referee the block descent solvers, so they deliberately
share nothing with the secular-equation machinery; only the problem
representation and the certificate check are reused.  The proximal
operators also serve as the exact group update in the special case of a
design with orthonormal columns within each group.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .certificates import certificate
from .problem import (Coefficients, _check_beta, objective, penalty_weights,
                      soft_threshold)

# power iteration for the Lipschitz constant: relative stopping change and cap
POWER_REL_TOL = 1e-6
POWER_MAX_ITERS = 5_000
# cyclic coordinate passes after the grid argmin in grid_refine
GRID_REFINE_PASSES = 40
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
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
    """Largest eigenvalue of X'X by power iteration to POWER_REL_TOL relative."""
    n, p = design.shape
    u = design.T @ np.ones(n)
    if not np.any(u):
        u = np.ones(p)
    u /= np.linalg.norm(u)
    estimate = 0.0
    for _ in range(POWER_MAX_ITERS):
        w = design.T @ (design @ u)
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return 0.0
        u = w / new
        if abs(new - estimate) <= POWER_REL_TOL * new:
            return new
        estimate = new
    return estimate


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

    Returns (Coefficients, iterations); hitting ``max_iters`` leaves the
    best iterate in place and warns, with iterations == max_iters as the
    flag.
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


def _batch_objective(problem, penalty, candidates):
    """Objective at every row of ``candidates`` (shape (G, p)), vectorized."""
    fitted = candidates @ problem.design.T
    diff = problem.y[None, :] - fitted
    lam1, lam2 = penalty_weights(penalty)
    squares = np.add.reduceat(candidates * candidates, problem._offsets[:-1], axis=1)
    return (0.5 * np.einsum("ij,ij->i", diff, diff)
            + lam1 * np.sqrt(squares).sum(axis=1)
            + lam2 * np.abs(candidates).sum(axis=1))


def _golden_section(fun, lo, hi, iters=80):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def grid_refine(problem, penalty, box, resolution):
    """Ground truth for tiny problems: dense grid plus coordinate refinement.

    ``box`` is one (lo, hi) pair applied to every coordinate, or one pair
    per coordinate.  Only usable for p <= 3; the grid has
    ((hi-lo)/resolution)^p points.  After the grid argmin, up to
    GRID_REFINE_PASSES cyclic golden-section passes polish each coordinate
    (the objective is convex, hence unimodal along any line).
    """
    p = problem.n_features
    if p > 3:
        raise ValueError(f"grid refinement limited to p <= 3, got p = {p}")
    pairs = list(box) if hasattr(box[0], "__len__") else [box] * p
    if len(pairs) != p:
        raise ValueError("need one (lo, hi) pair per coordinate")
    axes = [np.arange(lo, hi + 0.5 * resolution, resolution) for lo, hi in pairs]
    mesh = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([m.ravel() for m in mesh], axis=1)
    best = candidates[np.argmin(_batch_objective(problem, penalty, candidates))].copy()

    point = best.copy()
    for _ in range(GRID_REFINE_PASSES):
        moved = 0.0
        for i in range(p):
            def along(t, i=i):
                trial = point.copy()
                trial[i] = t
                return _batch_objective(problem, penalty, trial[None, :])[0]
            new = _golden_section(along, point[i] - 2 * resolution,
                                  point[i] + 2 * resolution)
            moved = max(moved, abs(new - point[i]))
            point[i] = new
        if moved < 1e-12:
            break
    return Coefficients(point, problem.group_sizes)
