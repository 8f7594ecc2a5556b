"""Block coordinate descent for the group lasso with exact group updates.

Each sweep visits its groups in order.  For group k, with the partial
residual R_k = y - sum_{l != k} X_l b_l and the group gradient
g_k = X_k' R_k, b_k is set to the exact minimizer of
0.5*||R_k - X_k b_k||^2 + lam*||b_k||_2: zero when ||g_k||_2 <= lam,
otherwise the solution of the secular equation in the eigenbasis of
X_k' X_k.  Because every update is an exact block minimizer the objective
never increases, and the iterates converge to the global minimum of the
(convex) objective.

Sweeps follow glmnet's active-set strategy (Friedman, Hastie & Tibshirani
2010).  A full sweep visits every group.  When a full sweep leaves the
support (the groups with nonzero norm) unchanged, and that support is
neither empty nor every group, the following sweeps visit only the support,
until one of them moves no coefficient by more than ``tol``; the next sweep
is then a full one again.  The solve has converged only when a full sweep
moves no coefficient by more than ``tol``, so every group, zero or not,
was updated in the last sweep.

Every visit forms g_k = X_k'r + X_k'X_k b_k (X_k'r alone for a zero
group), where r = y - X b is the full residual, and moves the group by
its step new - b_k; the group Gram X_k'X_k is built once on the spectrum
cache.  The problem's shape picks what the engine carries, with no
option: the cache's ``covariance`` flag is that one test.  With p >= n
it carries r (residual mode): X_k'r is one O(n p_k) product, and
``move(k, step)`` subtracts X_k step from r.  With n > p it carries the
gradient X'r instead (covariance mode, glmnet's covariance updates):
X_k'r is a slice of it, and ``move(k, step)`` subtracts (X'X_k) step, at
O(p p_k) per update.  The Gram columns X'X_k, and the group Grams
X_k'X_k as their diagonal blocks, are views of one X'X, formed by a
single symmetric product the first time any group is nonzero and cached,
with X'y, on the spectrum cache.  Both modes rebuild their state from
scratch at the start of a solve and after each full sweep, so updates
cannot drift: X'r = X'y - X'X b takes one product, and the objective of
a full sweep comes from a fresh residual.  Covariance mode never forms
the residual inside a sweep.  A support sweep's objective there is taken
as a difference from the last full sweep's, obj0 - D'(X'r0) + 0.5
D'(X'r0 - X'r) plus the change in the penalty, where D = b - b0 and b0,
r0 belong to that full sweep.  It never subtracts against ||y||^2, which
would cancel.

Covariance mode also takes damped Newton steps on the settled support
(Roth & Fischer 2008), where block descent crawls.  After every
NEWTON_EVERY consecutive support sweeps that still moved, a burst takes
up to NEWTON_STEPS Newton steps on the nonzero coordinates, where the
objective is smooth, with the Hessian's X_A'X_A read from the cached
X'X; see ``_CovarianceMode.newton``.  Every accepted step lowers
the objective and is applied to X'r by the same move as a group update.
Exact sweeps still decide the support and the stopping, since a solve
converges only on a full sweep.  Residual mode takes no Newton steps.

Eigendecompositions are computed lazily on the first nonzero update of a
group and cached, so groups that never activate never pay for one.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .problem import (Coefficients, GroupLassoPenalty, SparseGroupLassoPenalty,
                      _check_count, _check_penalties, _start_point, gamma,
                      group_norms, penalty_term, penalty_weights, vector_norm)
from .secular import solve_secular
from .spectra import SpectrumCache

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100_000
# covariance mode: a Newton burst after every NEWTON_EVERY consecutive
# support sweeps, of at most NEWTON_STEPS accepted steps
NEWTON_EVERY = 5
NEWTON_STEPS = 8


@dataclass
class SolveOptions:
    """Stopping controls and start point of every solver.

    The exact solvers stop once the sup-norm change of the coefficient
    vector over a full sweep (one that visits every group) drops to
    ``tol``, and ``max_sweeps`` counts every sweep, full or support-only.
    ``fista_solve`` stops once the certificate's ``kkt_ratio`` drops to
    ``tol``, and ``max_sweeps`` caps its iterations.  Every solver starts
    from ``initial``, zero when it is None.
    """

    tol: float = DEFAULT_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    initial: Coefficients | None = None

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        _check_count("max_sweeps", self.max_sweeps, 1)


@dataclass
class SolveTrace:
    """Per-sweep objective values and run accounting.

    ``objective_per_sweep[0]`` is the objective at the starting point and
    each subsequent entry follows one sweep (full or support-only) or one
    Newton burst that took a step; the sequence is non-increasing.
    ``sweeps`` counts every sweep and ``full_sweeps`` those that visited
    every group; a converged solve ends on a full sweep, so it has
    ``full_sweeps >= 1``.  ``newton_steps`` counts the accepted Newton
    steps (always 0 when p >= n).  ``boundary_slack_accepts`` counts
    off-support box conditions the sparse solver accepted inside its
    slack, each a near tie (always 0 for the plain group lasso).  ``fista_solve`` fills the same fields,
    with one entry and one sweep per iteration.
    """

    objective_per_sweep: np.ndarray
    sweeps: int
    full_sweeps: int
    converged: bool
    wall_time: float
    newton_steps: int = 0
    boundary_slack_accepts: int = 0


def lambda_max(problem):
    """Smallest penalty at which the all-zero vector is optimal: max_k ||X_k' y||."""
    g = problem.design.T @ problem.y
    return float(group_norms(g, problem._offsets[:-1]).max())


class _Zeros(dict):
    """One read-only zero vector per length, made on first use and shared."""

    def __missing__(self, size):
        zero = np.zeros(size)
        zero.flags.writeable = False
        return self.setdefault(size, zero)


ZEROS = _Zeros()  # the zero result of every update; see _sweep_engine
# A secular root at or above TINY_ROOT cannot give an all-zero group: its
# rotated optimum has norm r to ROOT_TOL, so some entry is at least
# r / (2 sqrt(p_k)) and normal for p_k < 2^20, and the orthogonal rotation
# back keeps an entry of about ||alpha|| / sqrt(p_k), far above the
# rounding of its p_k-term sums.  Only a subnormal root can round to zero.
TINY_ROOT = 2.0 ** -1000


def group_update(problem, k, g, lam, spectra, roots):
    """Exact minimizer over group ``k`` given its gradient g = X_k' R_k.

    ``R_k`` is the partial residual with group ``k`` left out.  A zero
    minimizer (||g|| <= lam, boundary included, a secular root zero to
    rounding, or below TINY_ROOT a result that rounds to all zeros) is
    returned as the shared read-only ``ZEROS[p_k]``, the object the sweep
    engine tests for; otherwise the secular root is mapped back through
    the eigenbasis into a new array.  ``roots`` holds one secular root per
    group: the solve is seeded with ``roots[k]`` and stores its root there.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if vector_norm(g) <= lam:
        return ZEROS[g.shape[0]]
    spectrum = spectra.gram_spectrum(k)
    result = solve_secular(spectrum.line_search(g, lam), r0=roots[k])
    roots[k] = result.r
    new = np.dot(spectrum.u.T, result.alpha_rotated)
    if result.r < TINY_ROOT and not new.any():
        # the zero root (||g|| within round-off of lam), or a subnormal
        # root whose result rounds to zero
        return ZEROS[g.shape[0]]
    return new


class _ResidualMode:
    """Sweep state for p >= n: the residual r = y - X b."""

    def __init__(self, problem, penalty, beta):
        self.problem, self.penalty, self.beta = problem, penalty, beta
        self.blocks = [problem.group_matrix(k) for k in range(problem.n_groups)]

    def refresh(self):
        """Rebuild r from scratch; return the objective."""
        self.residual = self.problem.y - self.problem.design @ self.beta.values
        return self.objective()

    def objective(self):
        r = self.residual
        return 0.5 * float(r @ r) + penalty_term(self.penalty, self.beta)

    def xtr(self, k):
        return np.dot(self.blocks[k].T, self.residual)

    def move(self, k, step):
        self.residual -= np.dot(self.blocks[k], step)

    def newton(self):
        """Residual mode takes no Newton steps."""
        return 0


class _CovarianceMode:
    """Sweep state for n > p: the gradient X'r, moved through the cached X'X."""

    def __init__(self, problem, penalty, beta, spectra):
        self.problem, self.penalty, self.beta = problem, penalty, beta
        self.spectra = spectra
        self.slices = [problem.group_slice(k) for k in range(problem.n_groups)]
        self.owner = np.repeat(np.arange(problem.n_groups), problem.group_sizes)

    def refresh(self):
        """Rebuild X'r = X'y - X'X b and r; return the objective.

        The objective, X'r and b here anchor the support sweeps' objectives.
        X'X is not formed while b is zero.  The residual, which only the
        objective reads, is summed over the nonzero groups, so a sparse b
        does not stream the whole design.
        """
        problem, beta, spectra = self.problem, self.beta, self.spectra
        b = beta.values
        residual = problem.y.copy()
        for k in np.flatnonzero(beta.group_norms()).tolist():
            residual -= problem.group_matrix(k) @ beta.group(k)
        xty = spectra.xty()
        self.grad = grad = xty - spectra.gram() @ b if b.any() else xty.copy()
        pen = penalty_term(self.penalty, beta)
        obj = 0.5 * float(residual @ residual) + pen
        self.anchor = (obj, b.copy(), grad.copy(), pen)
        return obj

    def objective(self, beta=None, grad=None):
        """The objective at ``beta`` with gradient ``grad`` (default: now)."""
        if beta is None:
            beta, grad = self.beta, self.grad
        obj0, b0, grad0, pen0 = self.anchor
        d = beta.values - b0
        return (obj0 - float(d @ grad0) + 0.5 * float(d @ (grad0 - grad))
                + penalty_term(self.penalty, beta) - pen0)

    def newton(self):
        """Damped Newton steps on the nonzero coordinates; return how many.

        On A = {j : b_j != 0} the objective is smooth, with gradient
        -(X'r)_A + lam1 b_k/||b_k|| + lam2 sign(b_A) and Hessian
        X_A'X_A + lam1 blockdiag((I - u_k u_k')/||b_k||), u_k = b_k/||b_k||.
        X_A'X_A is read from the cached X'X.  Each step halves until the
        objective falls and is applied through ``move``.  The burst ends
        when the Hessian is singular to rounding (duplicated columns, say;
        see ``_cholesky``) or when no halving lowers the objective.
        """
        lam1, lam2 = penalty_weights(self.penalty)
        beta = self.beta
        b = beta.values
        gram = self.spectra.gram()
        taken = 0
        while taken < NEWTON_STEPS:
            on = np.flatnonzero(b)
            if not on.size:
                break
            owner = self.owner[on]
            norms = np.repeat(beta.group_norms(), beta.group_sizes)[on]
            u = b[on] / norms
            grad = lam1 * u + lam2 * np.sign(b[on]) - self.grad[on]
            hess = gram[np.ix_(on, on)] - lam1 * np.where(
                owner[:, None] == owner[None, :], np.outer(u, u / norms), 0.0)
            hess[np.diag_indices_from(hess)] += lam1 / norms
            chol = _cholesky(hess)
            if chol is None:
                break
            direction = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
            if not np.isfinite(direction).all():
                break
            slope = gram[:, on] @ direction
            current = self.objective()
            trial = Coefficients(b.copy(), beta.group_sizes)
            values = trial.values
            t = 1.0
            while True:
                values[on] = b[on] + t * direction
                if np.array_equal(values, b):
                    return taken
                if self.objective(trial, self.grad - t * slope) < current:
                    break
                t *= 0.5
            for k in np.unique(owner).tolist():
                sl = self.slices[k]
                self.move(k, values[sl] - b[sl])
                b[sl] = values[sl]
            taken += 1
        return taken

    def xtr(self, k):
        return self.grad[self.slices[k]].copy()

    def move(self, k, step):
        self.grad -= np.dot(self.spectra.gram_columns(k), step)


def _cholesky(hess):
    """Cholesky factor of ``hess``, or None when it is singular to rounding.

    Computed in floating point, the factor L of an m x m matrix H satisfies
    L L' = H + E with |E| <= gamma_{m+1} |L||L'| (Higham 2002, Thm 10.3;
    ``problem.gamma``).  On the diagonal, (|L||L'|)_ii = H_ii + E_ii, so
    rounding alone can move H_ii by about gamma_{m+1} H_ii.  A pivot with
    l_ii^2 <= gamma_{m+1} H_ii is within that of zero, and the step it gives
    along its direction is noise.
    """
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    if (np.diagonal(chol) ** 2 <= gamma(hess.shape[0] + 1) * np.diagonal(hess)).any():
        return None
    return chol


def _sweep_engine(problem, penalty, update_one, options, on_sweep, spectra):
    """Shared start, sweep, stopping and trace loop of both exact solvers.

    ``update_one(k, g)`` returns the exact minimizer over group ``k`` given
    its gradient g = X_k' R_k; the solvers differ only in that update, and
    both return zero exactly when ||soft(g, lam2)|| <= lam1.  The zero
    protocol: an update returns the shared read-only ``ZEROS[p_k]`` for a
    zero result and a new array with some nonzero entry otherwise, so the
    engine tells the two apart by identity, never by scanning the result,
    and a zero visit allocates nothing.  Sweeps alternate between all
    groups and the settled support, as the module docstring describes.
    Every visit, in either kind of sweep, hands ``update_one`` its group's
    gradient, read from the residual or from X'r by the problem's shape; a
    zero group that stays zero costs that one X_k'r and the update's norm
    test, and moves nothing.  The visit's short products use ``np.dot``,
    the same BLAS call as ``@`` at a smaller fixed cost.
    """
    options = options or SolveOptions()
    start = time.perf_counter()
    if spectra.problem is not problem:
        raise ValueError("spectrum cache was built for another problem")
    beta = _start_point(problem, options.initial)
    n_groups = problem.n_groups
    all_groups = range(n_groups)
    coefs = [beta.group(k) for k in all_groups]
    zeros = [ZEROS[bk.shape[0]] for bk in coefs]
    live = [bool(bk.any()) for bk in coefs]
    if spectra.covariance:
        mode = _CovarianceMode(problem, penalty, beta, spectra)
    else:
        mode = _ResidualMode(problem, penalty, beta)
    xtr, move, group_gram = mode.xtr, mode.move, spectra.group_gram
    dot, absolute, largest = np.dot, np.abs, np.maximum.reduce
    tol = options.tol
    objectives = [mode.refresh()]
    converged = False
    active = None  # the groups a support sweep visits; None for a full sweep
    sweeps = full_sweeps = newton_steps = run = 0
    while sweeps < options.max_sweeps:
        full = active is None
        if full:
            support_before = live.copy()
        moved = False  # some coefficient moved by more than tol
        for k in all_groups if full else active:
            bk = coefs[k]
            g = xtr(k) + dot(group_gram(k), bk) if live[k] else xtr(k)
            new = update_one(k, g)
            alive = new is not zeros[k]
            if not (alive or live[k]):
                continue  # zero stays zero
            step = new - bk
            move(k, step)
            bk[:] = new
            live[k] = alive
            if not moved:
                moved = bool(largest(absolute(step)) > tol)
        sweeps += 1
        if full:
            full_sweeps += 1
            # refresh after each full sweep so incremental updates cannot drift
            objectives.append(mode.refresh())
        else:
            objectives.append(mode.objective())
        if on_sweep is not None:
            on_sweep(sweeps, beta)
        if not moved:
            if full:
                converged = True
                break
            active = None
        elif full:
            if live == support_before and 0 < sum(live) < n_groups:
                active = [k for k in all_groups if live[k]]
                run = 0
        else:
            run += 1  # consecutive support sweeps that still moved
            if run % NEWTON_EVERY == 0:
                steps = mode.newton()
                if steps:
                    newton_steps += steps
                    live[:] = [bool(bk.any()) for bk in coefs]
                    objectives.append(mode.objective())
    trace = SolveTrace(
        objective_per_sweep=np.asarray(objectives),
        sweeps=sweeps,
        full_sweeps=full_sweeps,
        converged=converged,
        wall_time=time.perf_counter() - start,
        newton_steps=newton_steps)
    return beta, trace


def solve_group_lasso(problem, penalty, options=None, spectra=None, on_sweep=None):
    """Run block coordinate descent for the group lasso.

    Parameters
    ----------
    problem : GroupedProblem
    penalty : GroupLassoPenalty
    options : SolveOptions, optional
    spectra : SpectrumCache, optional
        Reused across warm-started solves on the same problem; a cache
        built for another problem object raises ValueError.
    on_sweep : callable, optional
        Called as ``on_sweep(sweep_index, beta)`` after each sweep with the
        live coefficient object (copy it if you keep it).

    Returns
    -------
    (Coefficients, SolveTrace)
        Non-convergence within ``max_sweeps`` is reported through
        ``trace.converged``, not raised: convergence is only guaranteed in
        the limit.
    """
    if not isinstance(penalty, GroupLassoPenalty):
        raise TypeError("solve_group_lasso expects a GroupLassoPenalty")
    spectra = spectra or SpectrumCache(problem)
    roots = [0.0] * problem.n_groups  # each group's last secular root

    def update_one(k, g):
        return group_update(problem, k, g, penalty.lam, spectra, roots)

    return _sweep_engine(problem, penalty, update_one, options, on_sweep, spectra)


def solve_path(problem, lambdas, options=None, l1_ratio=None):
    """Warm-started solves along a strictly decreasing penalty sequence.

    With ``l1_ratio`` None each rung solves the group lasso at ``lam``.
    With ``0 < l1_ratio < 1`` each rung solves the sparse group lasso with
    ``lam1 = (1 - l1_ratio) * lam`` and ``lam2 = l1_ratio * lam``.  The
    first solve starts from ``options.initial`` (zero when None); each later
    solve starts from the previous solution.  One spectrum cache is shared
    along the path.  Returns a list of (lam, Coefficients, SolveTrace).
    """
    lambdas = _check_penalties(lambdas).tolist()
    if l1_ratio is None:
        solve, penalty_at = solve_group_lasso, GroupLassoPenalty
    elif 0 < l1_ratio < 1:
        from .sparse_group_lasso import solve_sparse_group_lasso
        solve = solve_sparse_group_lasso
        penalty_at = lambda lam: SparseGroupLassoPenalty(
            (1 - l1_ratio) * lam, l1_ratio * lam)
    else:
        raise ValueError("l1_ratio must be None or lie strictly between 0 and 1")
    base = options or SolveOptions()
    spectra = SpectrumCache(problem)
    out = []
    warm = base.initial
    for lam in lambdas:
        beta, trace = solve(problem, penalty_at(lam),
                            replace(base, initial=warm), spectra=spectra)
        out.append((lam, beta, trace))
        warm = beta
    return out
