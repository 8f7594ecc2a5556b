"""Secular-equation line search behind every exact group update.

Minimizing 0.5*||b - A x||^2 + lam*||x||_2 over one group reduces, after
rotating into the eigenbasis of A'A = U' diag(d) U, to finding the root
r > 0 of

    f(r) = sum_j v_j^2 / (d_j r + lam)^2 = 1,

where v is the rotated target.  The root equals the 2-norm of the optimal
group coefficients, and the rotated optimum is recovered coordinate-wise
as alpha_j = r * v_j / (d_j r + lam).

f is strongly convex, so Newton on f itself creeps toward the root.  The
solver instead runs Newton on the reciprocal norm phi(r) = f(r)^{-1/2} = 1,
as trust-region solvers do for the same equation ||(L + rI)^{-1} g|| = D
(Hebden 1973; More & Sorensen 1983, "Computing a trust region step", SIAM
J. Sci. Stat. Comput. 4(3)).  With lam_j = lam/d_j,

    sqrt(f(r)) = || (v_j/d_j) / (r + lam_j) ||,

so phi is concave and increasing in r; a null direction (d_j = 0) is the
limit lam_j -> inf and keeps both properties.  Newton from r = 0 therefore
produces an increasing sequence of iterates below the root and converges
without safeguards whenever f(0) > 1 > lim f.  Each step goes at least as
far as a Newton step on f from the same point, and when all d_j are equal
phi is linear and one step is exact.  In terms of f and f' the step is

    r <- r + 2 f (1 - sqrt(f)) / f'.

A bisection fallback sits behind the iteration cap and takes over at once
if the slope is not negative (a flat stretch or a non-finite value).

For a target of the form v = U A'b, any null eigendirection (d_j = 0)
carries v_j = 0 in exact arithmetic; such coordinates are dropped when
the computed v_j is at round-off scale so that f genuinely vanishes at
infinity.  Targets shifted off the row space (the signed subproblems of
the sparse solver) can put real mass on null directions; those terms are
kept and contribute a constant floor, and the caller must check
f_limit < 1 before asking for a root.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SecularRootError

# d_j below this fraction of max(d) counts as a null direction; a null
# direction's v_j below this fraction of max|v| counts as round-off.
NULL_EIGENVALUE_REL = 1e-12
NULL_TARGET_REL = 1e-10

DEFAULT_TOL = 1e-12
MAX_NEWTON_ITERS = 10_000


@dataclass
class LineSearchProblem:
    """Eigenvalues d >= 0, rotated target v, and the 2-norm weight lam > 0."""

    d: np.ndarray
    v: np.ndarray
    lam: float
    v_eff: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.d = np.atleast_1d(np.asarray(self.d, dtype=np.float64))
        self.v = np.atleast_1d(np.asarray(self.v, dtype=np.float64))
        self.lam = float(self.lam)
        if self.d.shape != self.v.shape or self.d.size < 1:
            raise ValueError("d and v must be equal-length nonempty vectors")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if np.any(self.d < 0):
            raise ValueError("eigenvalues must be nonnegative")
        d_tiny = NULL_EIGENVALUE_REL * (self.d.max() if self.d.size else 0.0)
        v_tiny = NULL_TARGET_REL * (np.abs(self.v).max() if self.v.size else 0.0)
        junk = (self.d <= d_tiny) & (np.abs(self.v) <= v_tiny)
        self.v_eff = np.where(junk, 0.0, self.v)
        self._null = self.d <= d_tiny


def f_eval(lsp, r):
    """f(r) = sum_j v_j^2 / (d_j r + lam)^2 over the effective terms."""
    q = lsp.v_eff / (lsp.d * r + lsp.lam)
    return float(q @ q)


def f_derivative(lsp, r):
    """f'(r) = -2 sum_j d_j v_j^2 / (d_j r + lam)^3; nonpositive."""
    den = lsp.d * r + lsp.lam
    return float(-2.0 * np.sum(lsp.d * lsp.v_eff ** 2 / den ** 3))


def f_limit(lsp):
    """lim_{r -> inf} f(r): the constant floor from null eigendirections."""
    floor_v = lsp.v_eff[lsp._null]
    return float(np.sum((floor_v / lsp.lam) ** 2))


@dataclass
class LineSearchResult:
    """Root r (= 2-norm of the rotated optimum), the rotated optimum itself,
    Newton iteration count, the final residual |f(r) - 1|, and whether the
    bisection fallback produced the root."""

    r: float
    alpha_rotated: np.ndarray
    newton_iters: int
    residual: float
    bisected: bool


def _alpha_at(lsp, r):
    # (D + lam/r I)^{-1} v, written to stay finite for d_j = 0
    return r * lsp.v_eff / (lsp.d * r + lsp.lam)


def _f_and_slope(lsp, r):
    # f(r) and f'(r) in one pass.  f is computed exactly as f_eval does, so a
    # caller's f_eval(lsp, 0) > 1 test and the precondition below agree.
    den = lsp.d * r + lsp.lam
    q = lsp.v_eff / den
    return float(q @ q), -2.0 * float((lsp.d * q) @ (q / den))


def solve_secular(lsp, tol=DEFAULT_TOL, max_newton=MAX_NEWTON_ITERS):
    """Find the unique r > 0 with f(r) = 1 and the matching rotated optimum.

    The caller must have established f(0) > 1 (otherwise zero is the
    optimal group vector and there is nothing to solve); violating this
    raises ValueError.  A floor >= 1 means the equation has no finite
    root and raises SecularRootError, as does exceeding the iteration cap
    after the bisection fallback.
    """
    fr, slope = _f_and_slope(lsp, 0.0)
    if fr <= 1.0:
        raise ValueError(f"f(0) = {fr:.17g} <= 1; zero is already optimal")
    if f_limit(lsp) >= 1.0 - tol:
        raise SecularRootError(
            "f(r) stays above 1 for all finite r (floor from null directions)")
    r = 0.0
    iters = 0
    while True:
        if abs(fr - 1.0) <= tol:
            return LineSearchResult(r, _alpha_at(lsp, r), iters, abs(fr - 1.0),
                                    False)
        if iters >= max_newton or not slope < 0.0:
            break  # cap, flat stretch or non-finite value; hand over to bisection
        # Newton on f^{-1/2} = 1
        r += 2.0 * fr * (1.0 - math.sqrt(fr)) / slope
        fr, slope = _f_and_slope(lsp, r)
        iters += 1
    best_r, best_gap = r, abs(fr - 1.0)

    # Bracket [lo, hi] with f(lo) >= 1 >= f(hi), then bisect.
    lo, hi = r, max(2.0 * r, 1.0)
    for _ in range(200):
        if f_eval(lsp, hi) < 1.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise SecularRootError("could not bracket the secular root", best_r=best_r)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        fm = f_eval(lsp, mid)
        if abs(fm - 1.0) < best_gap:
            best_r, best_gap = mid, abs(fm - 1.0)
        if abs(fm - 1.0) <= tol:
            return LineSearchResult(mid, _alpha_at(lsp, mid), iters, abs(fm - 1.0),
                                    True)
        if fm > 1.0:
            lo = mid
        else:
            hi = mid
    raise SecularRootError(
        f"secular root finder stalled at |f(r)-1| = {best_gap:.3e}", best_r=best_r)
