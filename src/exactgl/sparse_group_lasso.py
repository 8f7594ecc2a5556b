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
    nonzero group, so only the 1-norm subgradient is free there.  The
    group Gram G = X_k' X_k comes from the spectrum cache, built once.
    The box allows a slack of two parts.  The computed box value is within
    gamma_{p+1} (|g_j| + (|G||x|)_j) of the one for this x, p = p_k (the
    product's rounding, Higham 2002, section 3.5, and the subtraction's;
    ``problem.gamma``).  And putting j on the support would turn an excess
    e_j into x_j ~ e_j / S_j, S_j <= H_jj = G_jj + lam1 / ||x_J||, which the
    sign check calls zero for e_j <= H_jj SIGN_ZERO_REL ||x_J||; twice that
    is allowed, as both checks round, else a near tie fails both.  x is exact
    for the weight lam1 (1 +- ROOT_TOL / 2), an error the slack does not
    bound for an ill-conditioned G_JJ.  An accepted excess moves the KKT
    ratio by about 2 SIGN_ZERO_REL (1 + G_jj ||x_J|| / lam1) at most.  Both
    parts scale with y, so no decision changes under power-of-two scaling.

SIGN_ZERO_REL is scale-free for the same reason: it compares |x_j| with
||x_J||, an entry and the norm of one coefficient vector, which scale
alike with y and alike with the group's columns, so it holds no absolute
size; ``test_power_of_two_scaling_is_bit_exact`` relies on that.

Once the zero check has failed, exactly one candidate with nonempty
support passes both exact checks, and its solution is the group optimum;
near a tie two may pass the slack, and the first one tried is taken.
The zero pattern itself is never tried.  When the zero check fails only by
rounding, the anchor (the sign of soft(g, lam2)) has a zero secular root
and is accepted with the zero vector.  Both zero results are the sweep
engine's shared ``ZEROS[p_k]`` (see ``group_lasso``); an accepted nonzero
candidate passed the sign check, so none of its support rounds to zero.
The walk over candidates is lazy but can visit 3^{p_k} - 1 of them, so
solves are refused for groups larger than MAX_GROUP_SIZE; near
convergence the optimal signs stop changing between sweeps, so trying
last sweep's accepted sign first usually succeeds immediately.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GroupSizeGuardError, SignSearchError
from .group_lasso import ZEROS, _sweep_engine
from .problem import SparseGroupLassoPenalty, gamma, soft_threshold, vector_norm
from .secular import ROOT_TOL, solve_secular
from .spectra import SpectrumCache

MAX_GROUP_SIZE = 12          # 3^12 sign candidates is the practical ceiling
SIGN_ZERO_REL = 1e-12        # |x_j| below this fraction of ||x|| counts as zero


def zero_check(g, lam1, lam2):
    """True iff zero minimizes the group subproblem with gradient g = X_k' R_k."""
    return vector_norm(soft_threshold(g, lam2)) <= lam1


class SubproblemStatus(Enum):
    FEASIBLE = "feasible"
    NO_ROOT = "no_root"
    INFEASIBLE_SIGN = "infeasible_sign"
    INFEASIBLE_BOUNDARY = "infeasible_boundary"


@dataclass
class SignedSubproblemResult:
    """Outcome of one sign candidate: status, the full-group coefficient
    vector when a root existed, and how many off-support box values were
    accepted inside the rounding bound of the box product."""

    status: SubproblemStatus
    alpha: np.ndarray | None = None
    slack_accepts: int = 0


def signed_subproblem(problem, k, g, signs, lam1, lam2, spectra, roots):
    """Solve the group subproblem assuming the sign pattern ``signs``.

    ``g`` is the group gradient X_k' R_k and ``signs`` a tuple over
    {-1, 0, +1}.  Returns FEASIBLE with the embedded coefficient vector
    when ``signs`` is the optimum's sign pattern, the shared ``ZEROS[p_k]``
    for the anchor's zero root; otherwise reports why it was rejected.
    ``roots[k]`` seeds the solve with group k's last root and keeps the new one.
    """
    s = np.array(signs, dtype=np.float64)
    J = np.flatnonzero(s)
    if not J.size:
        raise ValueError("sign pattern must have nonempty support")
    sJ = s[J]
    spectrum = spectra.gram_spectrum(k, subset=tuple(J.tolist()))
    lsp = spectrum.line_search(g[J] - lam2 * sJ, lam1)
    # No positive root either way: f never reaches down to 1 (checked here),
    # or f(0) does not exceed it (the zero root below).
    if lsp.floor >= 1.0 - ROOT_TOL:
        return SignedSubproblemResult(SubproblemStatus.NO_ROOT)
    sol = solve_secular(lsp, r0=roots[k])
    roots[k] = sol.r
    if sol.r == 0.0:
        if np.array_equal(s, np.sign(soft_threshold(g, lam2))):
            # the anchor's zero root: ||soft(g, lam2)|| sits within rounding
            # of lam1, and the group optimum is zero to that accuracy
            return SignedSubproblemResult(SubproblemStatus.FEASIBLE,
                                          alpha=ZEROS[s.size])
        return SignedSubproblemResult(SubproblemStatus.NO_ROOT)
    alpha_J = np.dot(spectrum.u.T, sol.alpha_rotated)
    alpha = np.zeros(s.size)
    alpha[J] = alpha_J

    zero_scale = SIGN_ZERO_REL * vector_norm(alpha_J)
    # s_j = +-1, so this is sign(alpha_j) = s_j and |alpha_j| > scale
    if not np.all(sJ * alpha_J > zero_scale):
        return SignedSubproblemResult(SubproblemStatus.INFEASIBLE_SIGN,
                                      alpha=alpha)
    slack_accepts = 0
    off = s == 0
    if off.any():
        gram = spectra.group_gram(k)
        excess = np.maximum(np.abs(g - np.dot(gram, alpha))[off] - lam2, 0.0)
        if excess.any():
            # rounding and the sign check's zero; see the module docstring
            slack = gamma(s.size + 1) * (np.abs(g)
                                         + np.dot(np.abs(gram), np.abs(alpha)))
            slack += 2.0 * (zero_scale * np.diag(gram) + SIGN_ZERO_REL * lam1)
            if np.any(excess > slack[off]):
                return SignedSubproblemResult(
                    SubproblemStatus.INFEASIBLE_BOUNDARY, alpha=alpha)
        slack_accepts = int(np.count_nonzero(excess))
    return SignedSubproblemResult(SubproblemStatus.FEASIBLE, alpha=alpha,
                                  slack_accepts=slack_accepts)


# Per-coordinate tie-break: +1 before 0 before -1.
_SIGN_RANK = (1, 0, -1)


def sign_order(g, lam2, previous=None):
    """Yield every nonzero sign pattern once, most promising first.

    The previously accepted pattern (if any) leads, then the sign of the
    soft-thresholded gradient (the anchor), then the rest by L1 distance
    sum_j |s_j - anchor_j| from the anchor with lexicographic tie-breaking
    (+1 < 0 < -1 per coordinate).  A drop or an entry costs 1 and a sign
    change 2: along a homotopy a coefficient changes sign only by passing
    through zero (Osborne, Presnell & Turlach 2000), so a flip is two
    steps from the anchor.  Each ring is walked depth first, which is that
    order, so nothing is built ahead or sorted; the anchor is formed only
    once ``previous`` has been tried.
    """
    if previous is not None:
        yield previous
    anchor = tuple(int(s) for s in np.sign(soft_threshold(g, lam2)))
    size = len(anchor)
    # reach[j]: how far anchor[j:] can move, 2 per nonzero entry, 1 per zero
    reach = [0] * (size + 1)
    for j in reversed(range(size)):
        reach[j] = reach[j + 1] + (2 if anchor[j] else 1)

    def ring(j, left):
        # anchor[j:] moved by exactly `left`, in rank order
        if j == size:
            yield ()
            return
        for s in _SIGN_RANK:
            rest = left - abs(s - anchor[j])
            if 0 <= rest <= reach[j + 1]:
                for tail in ring(j + 1, rest):
                    yield (s,) + tail

    for distance in range(reach[0] + 1):
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
    roots = [0.0] * problem.n_groups  # each group's last secular root
    slack_total = [0]

    def update_one(k, g):
        if zero_check(g, lam1, lam2):
            return ZEROS[g.shape[0]]
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
