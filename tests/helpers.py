"""Shared builders for the test suite."""

import numpy as np

import exactgl as gl
from exactgl.problem import (Coefficients, GroupedProblem, penalty_weights,
                             soft_threshold)
from exactgl.simulate import NOISE_SCALE_FACTOR, _apply_factor, true_coefficients
from exactgl.spectra import GroupSpectrum

SQRT2 = np.sqrt(2.0)
TRAP_OPTIMUM = 1.0 - SQRT2 / 2.0
# cyclic coordinate passes after the grid argmin in grid_refine
GRID_REFINE_PASSES = 40


def trap_problem():
    """Single two-wide group with identity design and unit penalty.

    The optimum is (1 - sqrt(2)/2) in both coordinates, but single
    coordinate descent started at zero never moves.
    """
    problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
    return problem, gl.GroupLassoPenalty(1.0)


def scaled_repro(n, scale):
    """y = scale * X_0 (1, -2, 0.5) on a seed-0 standard-normal n x 6 design
    with groups [3, 3].  At scale 1e-180 every gradient entry is below
    1e-154, so every square underflows; at 1e160 squares overflow."""
    X = np.random.default_rng(0).standard_normal((n, 6))
    return gl.GroupedProblem(scale * X[:, :3] @ np.array([1.0, -2.0, 0.5]), X,
                             [3, 3])


def random_sizes(rng, max_groups=5, max_size=4):
    n_groups = int(rng.integers(1, max_groups + 1))
    return rng.integers(1, max_size + 1, size=n_groups)


def random_problem(rng, n=None, sizes=None, max_groups=5, max_size=4,
                   noise=0.1, sparse_truth=True):
    """Random dense problem with a groupwise-sparse-ish ground truth.

    Keeps n comfortably above p so Gram matrices stay well conditioned.
    """
    if sizes is None:
        sizes = random_sizes(rng, max_groups, max_size)
    sizes = np.asarray(sizes, dtype=np.int64)
    p = int(sizes.sum())
    if n is None:
        n = int(rng.integers(p + 2, max(p + 3, 31)))
    X = rng.standard_normal((n, p))
    truth = rng.standard_normal(p)
    if sparse_truth:
        truth *= rng.random(p) < 0.7
    y = X @ truth + noise * rng.standard_normal(n)
    return gl.GroupedProblem(y, X, sizes)


def line_search(d, v, lam):
    """Line search for raw eigenvalues ``d`` and rotated target ``v``.

    Goes through ``GroupSpectrum.line_search`` with the identity as the
    eigenbasis, which leaves finite ``v`` unchanged bit for bit, so the
    null-direction screening is the solvers' own.
    """
    d = np.asarray(d, dtype=np.float64)
    return GroupSpectrum(np.eye(d.size), d).line_search(
        np.asarray(v, dtype=np.float64), float(lam))


def f_eval(lsp, r):
    """f(r) = sum_j v_j^2 / (d_j r + lam)^2, the secular function."""
    d, v = np.asarray(lsp.d), np.asarray(lsp.v)
    q = v / (d * r + lsp.lam)
    return float(q @ q)


def f_derivative(lsp, r):
    """f'(r) = -2 sum_j d_j v_j^2 / (d_j r + lam)^3; nonpositive."""
    d, v = np.asarray(lsp.d), np.asarray(lsp.v)
    den = d * r + lsp.lam
    return float(-2.0 * np.sum(d * v ** 2 / den ** 3))


def random_line_search(rng, max_q=20, lam_frac=None, q=None):
    """Line-search instance built from an actual (A, b) pair.

    Constructing v = U A'b keeps the exact-arithmetic property that null
    eigendirections carry no target mass, matching how the solvers build
    these instances; ``line_search`` then screens v as the solvers do.
    The size is ``q`` when given, and drawn from 1..max_q otherwise.
    """
    if q is None:
        q = int(rng.integers(1, max_q + 1))
    n = int(rng.integers(max(1, q - 3), q + 15))
    A = rng.standard_normal((n, q))
    b = rng.standard_normal(n)
    w, vecs = np.linalg.eigh(A.T @ A)
    d = np.maximum(w, 0.0)
    v = vecs.T @ (A.T @ b)
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        v[0] = 1.0
        norm_v = 1.0
    frac = lam_frac if lam_frac is not None else rng.uniform(0.05, 0.95)
    return line_search(d, v, frac * norm_v)


def fitted(problem, beta):
    return problem.design @ beta.values


def path_penalty(lam, l1_ratio):
    """The penalty that ``solve_path`` solves at ``lam`` for ``l1_ratio``."""
    if l1_ratio is None:
        return gl.GroupLassoPenalty(lam)
    return gl.SparseGroupLassoPenalty((1 - l1_ratio) * lam, l1_ratio * lam)


def certificate_w_by_group(problem, penalty, beta):
    """The certificate's subgradient w, built one group at a time.

    A nonzero group takes s = b_k/||b_k||, t = sign(b_k), and on its zero
    coordinates the t_j in [-1, 1] closest to -g_j/lam2.  A zero group
    soft-thresholds g_k by lam2 and shrinks the result by lam1 toward the
    origin, so w_k is exactly zero when ||soft(g_k, lam2)|| <= lam1.
    """
    lam1, lam2 = penalty_weights(penalty)
    resid = problem.y - problem.design @ beta.values
    w = np.empty(problem.n_features)
    for k in range(problem.n_groups):
        g = -(problem.group_matrix(k).T @ resid)
        bk = beta.group(k)
        norm_bk = float(np.linalg.norm(bk))
        if norm_bk > 0:
            t = np.sign(bk)
            if lam2 > 0:
                free = bk == 0
                t[free] = np.clip(-g[free] / lam2, -1.0, 1.0)
            wk = g + lam1 * bk / norm_bk + lam2 * t
        else:
            h = soft_threshold(g, lam2) if lam2 > 0 else g
            norm_h = float(np.linalg.norm(h))
            wk = h * (max(0.0, 1.0 - lam1 / norm_h) if norm_h > 0 else 0.0)
        w[problem.group_slice(k)] = wk
    return w


def _compound_symmetry_sqrt(m, rho):
    # eigenvalues: 1+(m-1)rho on the ones direction, 1-rho on its complement
    ones_proj = np.full((m, m), 1.0 / m)
    return (np.sqrt(1.0 - rho) * (np.eye(m) - ones_proj)
            + np.sqrt(1.0 + (m - 1) * rho) * ones_proj)


def covariance_factor(config):
    """Symmetric F with F F' = Sigma: the sampling transform applied to I."""
    return _apply_factor(np.eye(config.n_groups * config.group_size), config)


def covariance_matrix(config):
    """Sigma built entry by entry; cross-checks the factorization."""
    between = ((1.0 - config.b) * np.eye(config.n_groups)
               + config.b * np.ones((config.n_groups, config.n_groups)))
    within = ((1.0 - config.a) * np.eye(config.group_size)
              + config.a * np.ones((config.group_size, config.group_size)))
    return np.kron(between, within)


def dense_covariance_factor(config):
    """Symmetric F with F F' = Sigma, from the closed-form block square roots."""
    between = _compound_symmetry_sqrt(config.n_groups, config.b)
    within = _compound_symmetry_sqrt(config.group_size, config.a)
    return np.kron(between, within)


def dense_sample_problem(config):
    """Referee for ``sample_problem``: the same draws times the dense p x p F.

    O(np^2) flops and p^2 doubles; the library applies F in place instead.
    """
    rng = np.random.default_rng(config.seed)
    factor = dense_covariance_factor(config)
    p = config.n_groups * config.group_size
    X = rng.standard_normal((config.n_samples, p)) @ factor
    beta0 = true_coefficients(config)
    signal_var = float(np.sum((factor @ beta0.values) ** 2))
    c = np.sqrt(NOISE_SCALE_FACTOR * signal_var)
    y = X @ beta0.values + c * rng.standard_normal(config.n_samples)
    problem = GroupedProblem(y, X, [config.group_size] * config.n_groups)
    return problem, beta0


def batch_objective(problem, penalty, candidates):
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

    It shares nothing with the solvers but the problem and the penalty
    weights, so it can referee them.  ``box`` is one (lo, hi) pair applied
    to every coordinate, or one pair per coordinate.  Only usable for
    p <= 3; the grid has ((hi-lo)/resolution)^p points.  After the grid
    argmin, up to GRID_REFINE_PASSES cyclic golden-section passes polish
    each coordinate (the objective is convex, hence unimodal along any
    line).
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
    best = candidates[np.argmin(batch_objective(problem, penalty, candidates))].copy()

    point = best.copy()
    for _ in range(GRID_REFINE_PASSES):
        moved = 0.0
        for i in range(p):
            def along(t, i=i):
                trial = point.copy()
                trial[i] = t
                return batch_objective(problem, penalty, trial[None, :])[0]
            new = _golden_section(along, point[i] - 2 * resolution,
                                  point[i] + 2 * resolution)
            moved = max(moved, abs(new - point[i]))
            point[i] = new
        if moved < 1e-12:
            break
    return Coefficients(point, problem.group_sizes)
