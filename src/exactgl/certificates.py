"""Optimality certificates and finite-time accuracy bounds.

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

Small ||w|| certifies near-optimality quantitatively: with yhat the unique
optimal fitted values,

    ||X b - yhat||^2 <= 2 w'b + 2||w|| * S

for any S bounding the sum of group norms of some optimum.  Two always
computable choices of S are (L(b) - 0.5*||P_perp y||^2) / lam1 and the sum
of group norms plus (lam2/lam1) times the 1-norm of any unpenalized
least-squares estimate; a third needs a reference solution and uses its
plain 2-norm.
"""

from dataclasses import dataclass

import numpy as np

from .problem import (Coefficients, _check_beta, objective, penalty_weights,
                      soft_threshold)

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
    objective: float
    lse: float


def ls_quantities(problem):
    """Projection residual and a minimum-norm least-squares estimate.

    Returns (y - X b_lse, b_lse) with X'(y - X b_lse) = 0; cached per
    problem since it never changes.
    """
    cached = getattr(problem, "_ls_memo", None)
    if cached is not None:
        return cached
    values, *_ = np.linalg.lstsq(problem.design, problem.y, rcond=None)
    beta_lse = Coefficients(values, problem.group_sizes)
    resid = problem.y - problem.design @ values
    problem._ls_memo = (resid, beta_lse)
    return problem._ls_memo


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

    ``cert`` must have been computed at ``beta``.  ``reference``, when
    given, is a coefficient vector believed optimal and enables the basic
    bound.  Negative values are clamped to zero since the bounded
    quantity is a squared norm.
    """
    _check_beta(problem, beta)
    common = 2.0 * float(cert.w @ beta.values)
    wn = cert.w_norm
    lam1, lam2 = penalty_weights(penalty)

    value = objective(problem, penalty, beta)
    proj_resid, beta_lse = ls_quantities(problem)
    slack = max(0.0, value - 0.5 * float(proj_resid @ proj_resid))
    bound_objective = max(0.0, common + 2.0 * wn * slack / lam1)

    lse_sum = float(beta_lse.group_norms().sum()) + (lam2 / lam1) * float(
        np.abs(beta_lse.values).sum())
    bound_lse = max(0.0, common + 2.0 * wn * lse_sum)

    basic = None
    if reference is not None:
        basic = max(0.0, common + 2.0 * wn * float(np.linalg.norm(reference.values)))
    return AccuracyBounds(basic=basic, objective=bound_objective, lse=bound_lse)
