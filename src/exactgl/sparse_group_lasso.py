"""Block coordinate descent for the sparse group lasso via signed subproblems.

The group subproblem here is

    min_x 0.5*||R_k - X_k x||^2 + lam1*||x||_2 + lam2*||x||_1 .

With the group gradient g = X_k' R_k, zero is optimal exactly when
||soft(g, lam2)||_2 <= lam1.  Otherwise, if the sign pattern s of the
optimum were known, the 1-norm term would turn into the linear shift
-lam2*s on the support J = {j : s_j != 0}, and the problem would reduce to
a plain 2-norm-penalized one over the columns in J, solvable exactly by
the same secular equation as the group lasso with target
v = U_J (g_J - lam2*s_J).  Every signed target is built from the zero
check's g, so a candidate never goes back to the residual.

The sign pattern is not known, so candidates s in {-1,0,+1}^{p_k} are tried
until one is feasible.  Feasibility of a candidate's solution x means

  * sign(x_J) equals s_J coordinate-wise (a coordinate at round-off scale
    counts as zero and fails a nonzero s_j), and
  * every off-support coordinate satisfies the stationarity box
    |g_j - (X_k' X_k x)_j| <= lam2 (x is zero off J, so this is
    |(X_k)_j' (R_k - (X_k)_J x_J)|): the group-norm term is smooth at a
    nonzero group, so only the 1-norm subgradient is free there.

Exactly one candidate with nonempty support passes both checks once the
zero check has failed, and its solution is the group optimum; the zero
pattern itself is never tried.  When the zero check fails only by
rounding, the anchor (the sign of soft(g, lam2)) has a zero secular root
and is accepted with the zero vector.  The walk over candidates is lazy
but can visit 3^{p_k} - 1 of them, so solves are refused for groups
larger than MAX_GROUP_SIZE; near convergence the optimal signs stop
changing between sweeps, so trying last sweep's accepted sign first
usually succeeds immediately.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GroupSizeGuardError, SignSearchError
from .group_lasso import _sweep_engine
from .problem import SparseGroupLassoPenalty, soft_threshold
from .secular import ROOT_TOL, solve_secular
from .spectra import SpectrumCache

MAX_GROUP_SIZE = 12          # 3^12 sign candidates is the practical ceiling
SIGN_ZERO_REL = 1e-12        # |x_j| below this fraction of ||x|| counts as zero
BOUNDARY_SLACK = 1e-10       # absolute round-off slack on the off-support box


def zero_check(g, lam1, lam2):
    """True iff zero minimizes the group subproblem with gradient g = X_k' R_k."""
    return float(np.linalg.norm(soft_threshold(g, lam2))) <= lam1


class SubproblemStatus(Enum):
    FEASIBLE = "feasible"
    NO_ROOT = "no_root"
    INFEASIBLE_SIGN = "infeasible_sign"
    INFEASIBLE_BOUNDARY = "infeasible_boundary"


@dataclass
class SignedSubproblemResult:
    """Outcome of one sign candidate: status, the full-group coefficient
    vector when a root existed, and how many off-support boundary values
    were accepted inside the round-off slack."""

    status: SubproblemStatus
    alpha: np.ndarray | None = None
    slack_accepts: int = 0


def signed_subproblem(problem, k, g, signs, lam1, lam2, spectra, roots=None):
    """Solve the group subproblem assuming the sign pattern ``signs``.

    ``g`` is the group gradient X_k' R_k and ``signs`` a tuple over
    {-1, 0, +1}.  Returns FEASIBLE with the embedded coefficient vector
    when ``signs`` is the optimum's sign pattern; otherwise reports why it
    was rejected.  ``roots``, when given, is a dict of secular roots keyed
    by ``(k, support)``: the solve is seeded with the support's last root
    and stores its own there.  Without it the solve starts cold at r = 0.
    """
    s = np.array(signs, dtype=np.float64)
    J = np.flatnonzero(s)
    if not J.size:
        raise ValueError("sign pattern must have nonempty support")
    sJ = s[J]
    support = tuple(J.tolist())
    spectrum = spectra.gram_spectrum(k, subset=support)
    lsp = spectrum.line_search(g[J] - lam2 * sJ, lam1)
    # No positive root either way: f never reaches down to 1 (checked here),
    # or f(0) does not exceed it (the zero root below).
    if lsp.floor >= 1.0 - ROOT_TOL:
        return SignedSubproblemResult(SubproblemStatus.NO_ROOT)
    if roots is None:
        sol = solve_secular(lsp)
    else:
        key = (k, support)
        sol = solve_secular(lsp, r0=roots.get(key, 0.0))
        roots[key] = sol.r
    if sol.r == 0.0:
        if np.array_equal(s, np.sign(soft_threshold(g, lam2))):
            # the anchor's zero root: ||soft(g, lam2)|| sits within rounding
            # of lam1, and the group optimum is zero to that accuracy
            return SignedSubproblemResult(SubproblemStatus.FEASIBLE,
                                          alpha=np.zeros(s.size))
        return SignedSubproblemResult(SubproblemStatus.NO_ROOT)
    alpha_J = spectrum.u.T @ sol.alpha_rotated
    alpha = np.zeros(s.size)
    alpha[J] = alpha_J

    zero_scale = SIGN_ZERO_REL * float(np.linalg.norm(alpha_J))
    # s_j = +-1, so this is sign(alpha_j) = s_j and |alpha_j| > scale
    if not np.all(sJ * alpha_J > zero_scale):
        return SignedSubproblemResult(SubproblemStatus.INFEASIBLE_SIGN,
                                      alpha=alpha)
    slack_accepts = 0
    off = s == 0
    if off.any():
        Xk = problem.group_matrix(k)
        excess = np.maximum(np.abs((g - Xk.T @ (Xk @ alpha))[off]) - lam2, 0.0)
        if np.any(excess > BOUNDARY_SLACK):
            return SignedSubproblemResult(SubproblemStatus.INFEASIBLE_BOUNDARY,
                                          alpha=alpha)
        slack_accepts = int(np.count_nonzero(excess))
    return SignedSubproblemResult(SubproblemStatus.FEASIBLE, alpha=alpha,
                                  slack_accepts=slack_accepts)


# Per-coordinate tie-break: +1 before 0 before -1.
_SIGN_RANK = (1, 0, -1)


def sign_order(g, lam2, previous=None):
    """Yield every nonzero sign pattern once, most promising first.

    The previously accepted pattern (if any) leads, then the sign of the
    soft-thresholded gradient (the anchor), then the rest by Hamming
    distance from the anchor with lexicographic tie-breaking (+1 < 0 < -1
    per coordinate).  Each ring is walked depth first, which is that
    order, so nothing is built ahead or sorted.
    """
    anchor = tuple(int(s) for s in np.sign(soft_threshold(g, lam2)))
    size = len(anchor)

    def ring(j, left):
        # anchor[j:] with exactly `left` coordinates changed, in rank order
        if j == size:
            yield ()
            return
        for s in _SIGN_RANK:
            rest = left - (s != anchor[j])
            if 0 <= rest <= size - j - 1:
                for tail in ring(j + 1, rest):
                    yield (s,) + tail

    if previous is not None:
        yield previous
    for distance in range(size + 1):
        for signs in ring(0, distance):
            if signs != previous and any(signs):
                yield signs


def solve_sparse_group_lasso(problem, penalty, options=None, spectra=None,
                             on_sweep=None):
    """Run block coordinate descent for the sparse group lasso.

    Same sweep structure, stopping rule, and return convention as
    solve_group_lasso.  Raises GroupSizeGuardError when any group exceeds
    MAX_GROUP_SIZE, and SignSearchError if sign enumeration for some group
    is exhausted without a feasible candidate (a numerical-tolerance
    failure: exactly one candidate is feasible in exact arithmetic).
    """
    if not isinstance(penalty, SparseGroupLassoPenalty):
        raise TypeError("solve_sparse_group_lasso expects a SparseGroupLassoPenalty")
    biggest = int(problem.group_sizes.max())
    if biggest > MAX_GROUP_SIZE:
        raise GroupSizeGuardError(
            f"group of size {biggest} exceeds the sign-search ceiling "
            f"{MAX_GROUP_SIZE} (3^{biggest} candidates)")
    spectra = spectra or SpectrumCache(problem)
    lam1, lam2 = penalty.lam1, penalty.lam2
    previous_signs = [None] * problem.n_groups
    roots = {}  # the last secular root of each (group, support)
    slack_total = [0]

    def update_one(k, g):
        if zero_check(g, lam1, lam2):
            return np.zeros(g.shape[0])
        for candidate in sign_order(g, lam2, previous=previous_signs[k]):
            result = signed_subproblem(problem, k, g, candidate, lam1, lam2,
                                       spectra, roots)
            if result.status is SubproblemStatus.FEASIBLE:
                previous_signs[k] = candidate
                slack_total[0] += result.slack_accepts
                return result.alpha
        raise SignSearchError(
            f"no feasible sign pattern for group {k}; tolerances too tight "
            "for this data")

    beta, trace = _sweep_engine(problem, penalty, update_one, options, on_sweep,
                                spectra)
    trace.boundary_slack_accepts = slack_total[0]
    return beta, trace
