"""Optimality certificates and a finite-time accuracy bound.

A certificate at a point b is a concrete member w of the objective's
subdifferential there, built group by group as w_k = g_k + lam1*s_k
+ lam2*t_k with g_k = -X_k'(y - X b), where lam2 = 0 for the group lasso
(``penalty_weights``):

  * nonzero group: the group-norm term is differentiable, so s_k is
    forced to b_k/||b_k|| (and t_j = sign(b_kj) on nonzero coordinates);
    every remaining free piece is chosen to minimize its coordinate of w;
  * zero group: s_k ranges over the unit ball and t over the unit box,
    so w_k shrinks to g_k*max(0, 1 - lam1/||g_k||) for the group lasso,
    and to the soft-threshold of g_k by lam2 followed by the same group
    shrink in the sparse case (valid, provably minimal only in the plain
    case).

The accuracy bound is twice the duality gap at the dual point of Ndiaye,
Fercoq, Gramfort & Salmon (2017, JMLR 18(128)): theta = r / c with
r = y - X b and c = max(1, max_k ||soft(X_k'r, lam2)||_2 / lam1), which is
dual feasible since soft(z/c, a) = soft(z, c*a)/c.  The loss is 1-strongly
convex in the fitted values, so at any b, with yhat the optimal fitted
values and D(theta) = 0.5*||y||^2 - 0.5*||y - theta||^2,

    ||X b - yhat||^2 <= 2 (P(b) - P*) <= 2 (P(b) - D(theta)).

Given a reference solution b*, a certificate also gives the basic bound
||X b - yhat||^2 <= 2 w'b + 2||w|| * ||b*||.
"""

from dataclasses import dataclass

import numpy as np

from .problem import _check_beta, penalty_term, penalty_weights, soft_threshold

_MEMBERSHIP_TOL = 1 + 1e-12


@dataclass
class OptimalityCertificate:
    """A valid subgradient w and its norm."""

    w: np.ndarray
    w_norm: float


@dataclass
class AccuracyBounds:
    """Upper bounds on ||X b - yhat||^2; ``basic`` is None without a reference."""

    basic: float | None
    gap: float


def _group_pieces(lam1, lam2, g, bk):
    """Pick (s, t) for one group and return the resulting w_k with them."""
    norm_bk = float(np.linalg.norm(bk))
    if norm_bk > 0:
        s = bk / norm_bk
        t = np.sign(bk)
        if lam2 > 0:
            free = bk == 0
            t[free] = np.clip(-g[free] / lam2, -1.0, 1.0)
        return g + lam1 * s + lam2 * t, s, t
    # zero group: evaluate the shrink directly so w is exactly zero when
    # the free subgradients can absorb the whole gradient
    if lam2 > 0:
        h = soft_threshold(g, lam2)
        t = (h - g) / lam2
    else:
        h = g
        t = np.zeros_like(g)
    norm_h = float(np.linalg.norm(h))
    shrink = max(0.0, 1.0 - lam1 / norm_h) if norm_h > 0 else 0.0
    wk = h * shrink
    s = (wk - h) / lam1
    return wk, s, t


def certificate(problem, penalty, beta):
    """Construct a subgradient of the objective at ``beta``."""
    _check_beta(problem, beta)
    lam1, lam2 = penalty_weights(penalty)
    resid = problem.y - problem.design @ beta.values
    w = np.empty(problem.n_features)
    for k in range(problem.n_groups):
        g = -(problem.group_matrix(k).T @ resid)
        wk, s, t = _group_pieces(lam1, lam2, g, beta.group(k))
        if not float(np.linalg.norm(s)) <= _MEMBERSHIP_TOL:
            raise RuntimeError("group-norm subgradient outside unit ball")
        if not np.all(np.abs(t) <= _MEMBERSHIP_TOL):
            raise RuntimeError("1-norm subgradient outside unit box")
        w[problem.group_slice(k)] = wk
    return OptimalityCertificate(w=w, w_norm=float(np.linalg.norm(w)))


def accuracy_bounds(problem, penalty, beta, cert, reference=None):
    """Bounds on the squared distance of X*beta from the optimal fitted values.

    ``gap`` holds twice the duality gap at ``beta``.  ``cert`` must have
    been computed at ``beta``; ``reference``, when given, is a coefficient
    vector believed optimal and enables the basic bound.  Negative values
    are clamped to zero since the bounded quantity is a squared norm.
    """
    _check_beta(problem, beta)
    lam1, lam2 = penalty_weights(penalty)
    resid = problem.y - problem.design @ beta.values
    # summed as lambda_max sums, so c = 1 exactly at b = 0, lam1 = lambda_max
    h = soft_threshold(problem.design.T @ resid, lam2)
    norms = np.sqrt(np.add.reduceat(h * h, problem._offsets[:-1]))
    theta = resid / max(1.0, float(norms.max()) / lam1)
    dist = problem.y - theta
    gap = (0.5 * float(resid @ resid) + penalty_term(penalty, beta)
           - 0.5 * float(problem.y @ problem.y) + 0.5 * float(dist @ dist))
    basic = None
    if reference is not None:
        basic = max(0.0, 2.0 * float(cert.w @ beta.values)
                    + 2.0 * cert.w_norm * float(np.linalg.norm(reference.values)))
    return AccuracyBounds(basic=basic, gap=max(0.0, 2.0 * gap))
