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

The gap is summed as pen(b) - b'X'r / c + 0.5 ((c - 1) / c)^2 ||r||^2,
which equals P(b) - D(theta) when y = r + X b and has no term that cancels
against 0.5 ||y||^2 (at b = 0 with c = 1 each term is exactly zero).  Its
terms are sums of at most m = max(n, p + K) products; with six roundings
to join them, the computed gap is within gamma_{m+6} (pen(b) + |b|'|X'r|/c
+ 0.5 ((c - 1) / c)^2 ||r||^2) of the gap of the computed r and X'r, with
gamma_m = m u / (1 - m u) as in ``problem.gamma``.  Twice that is the
``allowance``, and ``gap`` is twice the computed gap plus it, never
clamped.  Where P(b) <= P(0) the terms are at most about ||y||^2, so the
allowance is at most about m eps ||y||^2.  It leaves out the rounding of
r and X'r themselves.

Both come from the same r and X'r, taken once per call; every group is
handled at once through per-group sums and norms over the partition.
"""

from dataclasses import dataclass

import numpy as np

from .problem import (_check_beta, gamma, group_norms, penalty_term,
                      penalty_weights, soft_threshold, vector_norm)

_MEMBERSHIP_TOL = 1 + 1e-12


@dataclass
class OptimalityCertificate:
    """A valid subgradient w, its norm and ``kkt_ratio`` = w_norm / lam1,
    and twice the duality gap with its rounding ``allowance`` included.

    Both measures say nothing at tiny penalties.  The dual point shrinks
    toward 0 with lam1, so the gap tends to twice the objective; and
    w_norm is set by where the solve stopped, not by lam1, so
    ``kkt_ratio`` grows as 1 / lam1: a converged solve at lam1 = 1e-200
    can report 1e193.
    """

    w: np.ndarray
    w_norm: float
    gap: float
    allowance: float
    kkt_ratio: float


def certificate(problem, penalty, beta):
    """Subgradient of the objective at ``beta`` and the gap bound there.

    ``gap`` bounds ||X beta - yhat||^2, allowance included.
    """
    _check_beta(problem, beta)
    lam1, lam2 = penalty_weights(penalty)
    starts, sizes = problem._offsets[:-1], problem.group_sizes
    b = beta.values
    resid = problem.y - problem.design @ b
    xtr = problem.design.T @ resid
    # normed as lambda_max norms, so c = 1 exactly at b = 0, lam1 = lambda_max
    h = soft_threshold(xtr, lam2)
    h_norms = group_norms(h, starts)
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
    if not np.all(group_norms(s, starts) <= _MEMBERSHIP_TOL):
        raise RuntimeError("group-norm subgradient outside unit ball")
    if not np.all(np.abs(t) <= _MEMBERSHIP_TOL):
        raise RuntimeError("1-norm subgradient outside unit box")
    w = np.where(zero, shrunk, -xtr + lam1 * s + lam2 * t)

    c = max(1.0, float(h_norms.max()) / lam1)
    pen = float(penalty_term(penalty, beta))
    fit = float(b @ xtr) / c
    tail = 0.5 * ((c - 1.0) / c) ** 2 * float(resid @ resid)
    m = max(problem.n_samples, problem.n_features + problem.n_groups) + 6
    allowance = 2.0 * gamma(m) * (pen + float(np.abs(b) @ np.abs(xtr)) / c + tail)
    w_norm = vector_norm(w)
    return OptimalityCertificate(w=w, w_norm=w_norm,
                                 gap=2.0 * (pen - fit + tail) + allowance,
                                 allowance=allowance, kkt_ratio=w_norm / lam1)


def accuracy_bounds(problem, penalty, beta, cert):
    """``cert.gap``: the gap bound that ``certificate`` computed at ``beta``.

    Kept as a named step because ``perfbench`` times it as one of its
    traced call sites; new code reads ``cert.gap`` directly.
    """
    return cert.gap
