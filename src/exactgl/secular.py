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
iteration can be seeded anywhere: both solvers keep one root per group
and seed it with the group's last root in the current solve, as More &
Sorensen warm-start theirs.  Every iterate is kept at or above

    low = (||v|| - lam) / max(d),

which lies at or below the root because f(r) >= ||v||^2 / (max(d) r + lam)^2.
There f is at most (max(d) / min(d))^2 for a positive spectrum however
small lam is, while f(0) = ||v||^2 / lam^2 overflows for lam near 1e-160,
and when all d_j are equal low is the root itself.  Each step goes at
least as far as a Newton step on f from the same point.  In terms of f
and f' the step is

    r <- max(low, r + 2 f (1 - sqrt(f)) / f'),

and the clamp binds only on a step down from above the root.  This one
loop is the whole solver: there is no second algorithm behind it.  The
iteration cap, or a slope that is not negative (a flat stretch or a
non-finite value), raises SecularRootError.

Each pass evaluates f, f' and q_j = v_j / (d_j r + lam) together, and
the rotated optimum alpha = r q comes from the pass that met ROOT_TOL,
so the root costs no evaluation beyond the loop's.  The pass runs over
Python floats, from lists that the spectrum and the line search cache,
because on the short vectors of a group numpy's fixed cost per call
outweighs its arithmetic; on groups of about 50 columns and more a
numpy pass would be the faster one.  On Python floats a product or quotient that
overflows gives inf, where a power would raise OverflowError, so the
pass squares by a product; every denominator is at least lam > 0.  A
non-finite value therefore reaches the loop test, and raises
SecularRootError there.

ROOT_TOL is scale-free: f(r) = ||alpha(r)||^2 / r^2, so |f(r) - 1| <=
ROOT_TOL compares the norm of the optimum that r gives with r itself,
two coefficient norms that scale alike with y and with the columns
(f is unchanged when v, lam and d r scale together).  The root test
holds no absolute size, which ``test_power_of_two_scaling_is_bit_exact``
relies on.

Line searches are built by ``GroupSpectrum.line_search``, which screens
the target against the spectrum's null directions and supplies the floor
lim_{r -> inf} f(r) (see ``spectra``).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import SecularRootError

ROOT_TOL = 1e-12             # a root satisfies |f(r) - 1| <= ROOT_TOL
MAX_NEWTON_ITERS = 10_000


class LineSearchProblem(NamedTuple):
    """Eigenvalues d >= 0, rotated target v, the 2-norm weight lam > 0, the
    floor lim_{r -> inf} f(r) from null eigendirections, and max(d).
    d and v are lists of Python floats, lam is a Python float, and each
    pass runs over them."""

    d: list
    v: list
    lam: float
    floor: float
    top: float


class LineSearchResult(NamedTuple):
    """Root r (= 2-norm of the rotated optimum), the rotated optimum itself,
    Newton iteration count and the final residual |f(r) - 1|.  The zero
    root (f(0) <= 1) has residual 0: there optimality is the inequality,
    not the equation."""

    r: float
    alpha_rotated: np.ndarray
    newton_iters: int
    residual: float


def _f_and_slope(lsp, r):
    # f(r), f'(r) and q = v / (d r + lam) in one pass; qj * qj, not qj**2:
    # on Python floats a power that overflows raises, a product gives inf
    lam = lsp.lam
    f = slope = 0.0
    q = []
    for d, v in zip(lsp.d, lsp.v):
        den = d * r + lam
        qj = v / den
        qq = qj * qj
        f += qq
        slope += d * qq / den
        q.append(qj)
    return f, -2.0 * slope, q


def solve_secular(lsp, r0=0.0):
    """Find the root r >= 0 of the group update and the matching rotated optimum.

    When f(0) <= 1, tested as ||v|| <= lam so that no term overflows at a
    tiny lam, zero is the optimal group vector, and the result is the
    zero root: r = 0, a zero optimum, no iterations.  Otherwise r > 0
    is the unique solution of f(r) = 1, found by Newton on f^{-1/2}.  A
    floor >= 1 means the equation has no finite root, and raises
    SecularRootError; so do MAX_NEWTON_ITERS steps without reaching
    ROOT_TOL, and a slope that is not negative, with the last iterate as
    ``best_r``.  A NaN anywhere fails the loop test and raises; it never
    returns as a root.

    Every iterate is at least low = (||v|| - lam) / max(d), which is at or
    below the root (see the module docstring).  The iteration starts at
    ``r0``, usually the root of a nearby problem, when it is finite and
    above low, and at low otherwise; the zero-root test ignores it.  A
    seed at or below the root starts the rise there.  A seed above it
    costs one Newton step, counted in ``newton_iters``, that lands at or
    below the root; from a far seed the step cancels digits and may stop
    above the root by O(eps * r0), and the loop steps down again.  A seed
    above the root without a negative slope is dropped.  The seed changes
    the iterations, never the root's tolerance, and ``r0 = 0`` gives the
    cold start's iterates bit for bit.
    """
    v, lam = lsp.v, lsp.lam
    norm = math.hypot(*v)
    if norm <= lam:
        return LineSearchResult(0.0, np.zeros(len(v)), 0, 0.0)
    if lsp.floor >= 1.0 - ROOT_TOL:
        raise SecularRootError(
            "f(r) stays above 1 for all finite r (floor from null directions)")
    # the lower bound of the module docstring; a NaN target gives 0
    top = lsp.top
    low = (norm - lam) / top if top > 0.0 and norm < math.inf else 0.0
    r = r0 if low < r0 < math.inf else low
    fr, slope, q = _f_and_slope(lsp, r)
    if fr < 1.0 - ROOT_TOL and not slope < 0.0:
        r = low
        fr, slope, q = _f_and_slope(lsp, r)
    iters = 0
    while not abs(fr - 1.0) <= ROOT_TOL:
        if iters >= MAX_NEWTON_ITERS or not slope < 0.0:
            raise SecularRootError(
                f"Newton on the secular equation stopped at |f(r)-1| = "
                f"{abs(fr - 1.0):.3e} after {iters} steps", best_r=r)
        # Newton on f^{-1/2} = 1; only a step down from above the root can
        # go below low.  A plain test, unlike max(), lets a NaN through to raise.
        r += 2.0 * fr * (1.0 - math.sqrt(fr)) / slope
        if r < low:
            r = low
        fr, slope, q = _f_and_slope(lsp, r)
        iters += 1
    # alpha = r q, written to stay finite for d_j = 0
    return LineSearchResult(r, np.multiply(q, r), iters, abs(fr - 1.0))
