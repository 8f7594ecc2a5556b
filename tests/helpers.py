"""Shared builders for the test suite."""

import numpy as np

import exactgl as gl
from exactgl.problem import penalty_weights, soft_threshold
from exactgl.spectra import GroupSpectrum

SQRT2 = np.sqrt(2.0)
TRAP_OPTIMUM = 1.0 - SQRT2 / 2.0


def trap_problem():
    """Single two-wide group with identity design and unit penalty.

    The optimum is (1 - sqrt(2)/2) in both coordinates, but single
    coordinate descent started at zero never moves.
    """
    problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
    return problem, gl.GroupLassoPenalty(1.0)


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


def random_line_search(rng, max_q=20, lam_frac=None):
    """Line-search instance built from an actual (A, b) pair.

    Constructing v = U A'b keeps the exact-arithmetic property that null
    eigendirections carry no target mass, matching how the solvers build
    these instances; ``line_search`` then screens v as the solvers do.
    """
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
