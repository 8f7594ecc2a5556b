"""
The univariate equation behind every group update
==================================================

With the group's Gram matrix diagonalized as U' diag(d) U and the rotated
target v = U X_k' R_k, the optimal group coefficients solve

    f(r) = sum_j v_j^2 / (d_j r + lam)^2 = 1

for r > 0, and r itself is the 2-norm of the optimal group vector.  The
function is convex and strictly decreasing, so Newton from r = 0 walks up
to the root monotonically, but slowly.  Its reciprocal square root
f^{-1/2} is concave and increasing, and nearly linear, so Newton on
f^{-1/2} = 1 walks up just as safely in about half the steps; that is the
iteration the solver runs.

This script shows both Newton walks on a random instance, and the two
identities worth knowing: f(0) = (||v||/lam)^2 decides whether the group
is active at all, and ||alpha(r)|| = r at the root.
"""

import numpy as np

import exactgl as gl

rng = np.random.default_rng(0)
A = rng.standard_normal((30, 6))
b = rng.standard_normal(30)

w, vecs = np.linalg.eigh(A.T @ A)
d = np.maximum(w, 0.0)
v = vecs.T @ (A.T @ b)
lam = 0.4 * np.linalg.norm(v)
lsp = gl.LineSearchProblem(d, v, lam)

print(f"f(0) = (||v||/lam)^2 = {gl.f_eval(lsp, 0.0):.4f}  (> 1, so active)")

# .. the two Newton walks, replayed by hand ..
steps = {
    "Newton on f": lambda fr, slope: -(fr - 1.0) / slope,
    "Newton on f^(-1/2)": lambda fr, slope: 2.0 * fr * (1.0 - np.sqrt(fr)) / slope,
}
for name, step in steps.items():
    r, fr = 0.0, gl.f_eval(lsp, 0.0)
    print(f"\n{name}\n  iter      r          f(r)")
    for it in range(1, 20):
        r += step(fr, gl.f_derivative(lsp, r))
        fr = gl.f_eval(lsp, r)
        print(f"  {it:4d}  {r:10.7f}  {fr:12.9f}")
        if abs(fr - 1.0) <= 1e-12:
            break

result = gl.solve_secular(lsp)
print(f"\nsolver root        : {result.r:.12f} in {result.newton_iters} iterations")
print(f"|f(r) - 1|         : {result.residual:.2e}")
print(f"||alpha(r)||       : {np.linalg.norm(result.alpha_rotated):.12f}")
print(f"identity gap       : {abs(np.linalg.norm(result.alpha_rotated) - result.r):.2e}")

# .. the root really is the norm of the group optimum ..
problem = gl.GroupedProblem(b, A, [6])
cache = gl.SpectrumCache(problem)
update = gl.group_update(problem, 0, b.copy(), lam, cache)
print(f"||group update||   : {np.linalg.norm(update):.12f}")
