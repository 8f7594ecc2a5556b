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
limit lam_j -> inf and keeps both properties.  Newton from a point at or
below the root therefore produces an increasing sequence of iterates below
the root and converges without safeguards whenever f(0) > 1 > lim f, and
one Newton step from a point above the root lands at or below it.  So the
iteration can be seeded anywhere: the solvers seed it with the root that
the same group, or the same (group, support) in the sparse solver, took at
its previous update in the current solve, as More & Sorensen warm-start
theirs.  Each step goes at least as far as a Newton step on f from the
same point, and when all d_j are equal phi is linear and one step is
exact.  In terms of f and f' the step is

    r <- r + 2 f (1 - sqrt(f)) / f'.

A bisection fallback sits behind the iteration cap and takes over at once
if the slope is not negative (a flat stretch or a non-finite value).

Line searches are built by ``GroupSpectrum.line_search``, which screens
the target against the spectrum's null directions and supplies the floor
lim_{r -> inf} f(r) (see ``spectra``).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SecularRootError

ROOT_TOL = 1e-12             # a root satisfies |f(r) - 1| <= ROOT_TOL
MAX_NEWTON_ITERS = 10_000


class LineSearchProblem(NamedTuple):
    """Eigenvalues d >= 0, rotated target v, the 2-norm weight lam > 0, and
    the floor lim_{r -> inf} f(r) from null eigendirections."""

    d: np.ndarray
    v: np.ndarray
    lam: float
    floor: float


def f_eval(lsp, r):
    """f(r) = sum_j v_j^2 / (d_j r + lam)^2."""
    q = lsp.v / (lsp.d * r + lsp.lam)
    return float(q @ q)


def f_derivative(lsp, r):
    """f'(r) = -2 sum_j d_j v_j^2 / (d_j r + lam)^3; nonpositive."""
    den = lsp.d * r + lsp.lam
    return float(-2.0 * np.sum(lsp.d * lsp.v ** 2 / den ** 3))


@dataclass
class LineSearchResult:
    """Root r (= 2-norm of the rotated optimum), the rotated optimum itself,
    Newton iteration count, the final residual |f(r) - 1|, and whether the
    bisection fallback produced the root.  The zero root (f(0) <= 1) has
    residual 0: there optimality is the inequality, not the equation."""

    r: float
    alpha_rotated: np.ndarray
    newton_iters: int
    residual: float
    bisected: bool


def _alpha_at(lsp, r):
    # (D + lam/r I)^{-1} v, written to stay finite for d_j = 0
    return r * lsp.v / (lsp.d * r + lsp.lam)


def _f_and_slope(lsp, r):
    # f(r) and f'(r) in one pass
    den = lsp.d * r + lsp.lam
    q = lsp.v / den
    return float(q @ q), -2.0 * float((lsp.d * q) @ (q / den))


def solve_secular(lsp, max_newton=MAX_NEWTON_ITERS, r0=0.0):
    """Find the root r >= 0 of the group update and the matching rotated optimum.

    When f(0) <= 1 zero is the optimal group vector, and the result is
    the zero root: r = 0, a zero optimum, no iterations.  Otherwise r > 0
    is the unique solution of f(r) = 1.  A floor >= 1 means the equation
    has no finite root and raises SecularRootError, as does exceeding the
    iteration cap after the bisection fallback.

    ``r0 > 0`` seeds the iteration, usually with the root of a nearby
    problem; the zero-root test ignores it.  A seed at or below the root
    starts the rise there.  A seed above it costs one Newton step, counted
    in ``newton_iters``, that lands at or below the root; from a far seed
    the step cancels digits and may stop above the root by O(eps * r0),
    and the loop steps down again.  A seed with no usable slope is
    dropped.  The seed changes the iterations, never the root's tolerance,
    and ``r0 = 0`` gives the cold start's iterates bit for bit.
    """
    q = lsp.v / lsp.lam
    if float(q @ q) <= 1.0:
        return LineSearchResult(0.0, np.zeros_like(lsp.v), 0, 0.0, False)
    if lsp.floor >= 1.0 - ROOT_TOL:
        raise SecularRootError(
            "f(r) stays above 1 for all finite r (floor from null directions)")
    r = r0 if r0 > 0.0 else 0.0
    iters = 0
    fr, slope = _f_and_slope(lsp, r)
    if fr < 1.0 - ROOT_TOL:
        # The seed lies above the root: step to or below it, or drop a seed
        # without a usable slope.
        if slope < 0.0 and max_newton > 0:
            r = max(0.0, r + 2.0 * fr * (1.0 - math.sqrt(fr)) / slope)
            iters = 1
        else:
            r = 0.0
        fr, slope = _f_and_slope(lsp, r)
    while True:
        if abs(fr - 1.0) <= ROOT_TOL:
            return LineSearchResult(r, _alpha_at(lsp, r), iters, abs(fr - 1.0),
                                    False)
        if iters >= max_newton or not slope < 0.0:
            break  # cap, flat stretch or non-finite value; hand over to bisection
        # Newton on f^{-1/2} = 1
        r += 2.0 * fr * (1.0 - math.sqrt(fr)) / slope
        fr, slope = _f_and_slope(lsp, r)
        iters += 1
    best_r, best_gap = r, abs(fr - 1.0)

    # Bracket [lo, hi] with f(lo) >= 1 >= f(hi), then bisect.  A far seed's
    # step can leave r just above the root, and then the root lies below r.
    lo, hi = (r, max(2.0 * r, 1.0)) if fr >= 1.0 else (0.0, r)
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
        if abs(fm - 1.0) <= ROOT_TOL:
            return LineSearchResult(mid, _alpha_at(lsp, mid), iters, abs(fm - 1.0),
                                    True)
        if fm > 1.0:
            lo = mid
        else:
            hi = mid
    raise SecularRootError(
        f"secular root finder stalled at |f(r)-1| = {best_gap:.3e}", best_r=best_r)
