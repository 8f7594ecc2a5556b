"""Optimality certificates and a finite-time accuracy bound, in one pass.

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

Both come from the same r and X'r, taken once per call; every group is
handled at once through per-group sums over the partition.
"""

from dataclasses import dataclass

import numpy as np

from .problem import _check_beta, penalty_term, penalty_weights, soft_threshold

_MEMBERSHIP_TOL = 1 + 1e-12


@dataclass
class OptimalityCertificate:
    """A valid subgradient w, its norm, and twice the duality gap."""

    w: np.ndarray
    w_norm: float
    gap: float


def certificate(problem, penalty, beta):
    """Subgradient of the objective at ``beta`` and the gap bound there.

    ``gap`` bounds ||X beta - yhat||^2; it is clamped at zero since the
    bounded quantity is a squared norm.
    """
    _check_beta(problem, beta)
    lam1, lam2 = penalty_weights(penalty)
    starts, sizes = problem._offsets[:-1], problem.group_sizes
    b = beta.values
    resid = problem.y - problem.design @ b
    xtr = problem.design.T @ resid
    # summed as lambda_max sums, so c = 1 exactly at b = 0, lam1 = lambda_max
    h = soft_threshold(xtr, lam2)
    h_norms = np.sqrt(np.add.reduceat(h * h, starts))
    # zero groups take the shrink of g = -X'r, exactly zero when the free
    # subgradients absorb it; a NaN norm is not zero, so such a group goes
    # down the nonzero branch and fails the membership check below
    norms = np.repeat(beta.group_norms(), sizes)
    zero = norms == 0
    shrunk = -h * np.repeat(1.0 - lam1 / np.maximum(h_norms, lam1), sizes)
    s = np.where(zero, (shrunk + h) / lam1, b / np.where(zero, 1.0, norms))
    t = np.sign(b)
    if lam2 > 0:
        free = b == 0
        t[free] = np.clip(xtr[free] / lam2, -1.0, 1.0)
    if not np.all(np.sqrt(np.add.reduceat(s * s, starts)) <= _MEMBERSHIP_TOL):
        raise RuntimeError("group-norm subgradient outside unit ball")
    if not np.all(np.abs(t) <= _MEMBERSHIP_TOL):
        raise RuntimeError("1-norm subgradient outside unit box")
    w = np.where(zero, shrunk, -xtr + lam1 * s + lam2 * t)

    theta = resid / max(1.0, float(h_norms.max()) / lam1)
    dist = problem.y - theta
    gap = (0.5 * float(resid @ resid) + penalty_term(penalty, beta)
           - 0.5 * float(problem.y @ problem.y) + 0.5 * float(dist @ dist))
    return OptimalityCertificate(w=w, w_norm=float(np.linalg.norm(w)),
                                 gap=max(0.0, 2.0 * gap))


def accuracy_bounds(problem, penalty, beta, cert):
    """``cert.gap``: the gap bound that ``certificate`` computed at ``beta``.

    Kept as a named step because ``perfbench`` times it as one of its
    traced call sites; new code reads ``cert.gap`` directly.
    """
    return cert.gap
