"""
Knowing how far you are: the duality-gap bound
==============================================

Stopping an iterative solver leaves the question of how close the current
point is to the optimum.  The duality gap answers it without knowing the
optimum.  Scaling the residual r = y - X b down until it is dual feasible
gives a dual point theta, and since the loss is 1-strongly convex in the
fitted values,

    ||X b - yhat||^2 <= 2 (P(b) - D(theta))

for the unique optimal fitted values yhat.  Everything on the right is
computable on the spot, at any point, converged or not, and
``gl.certificate`` returns it as ``gap`` next to the subgradient ``w``,
from the same residual.

This script tracks the true error (against a tightly converged run) next
to the gap bound, sweep by sweep.
"""

import numpy as np

import exactgl as gl

config = gl.SimulationConfig(n_samples=40, n_groups=6, group_size=4,
                             a=0.6, b=0.3, seed=11)
problem, _ = gl.sample_problem(config)
lam = 0.25 * gl.lambda_max(problem)
penalty = gl.GroupLassoPenalty(lam)

# .. a tightly converged reference gives the "true" fitted values ..
reference, ref_trace = gl.fista_solve(problem, penalty,
                                     gl.SolveOptions(tol=1e-10 / lam))
if not ref_trace.converged:
    raise SystemExit("the FISTA reference missed its KKT ratio")
y_ref = problem.design @ reference.values

iterates = []
beta, trace = gl.solve_group_lasso(problem, penalty,
                                   on_sweep=lambda s, b: iterates.append(b.copy()))

print("  sweep   true error   gap bound")
for sweep, point in enumerate(iterates, start=1):
    cert = gl.certificate(problem, penalty, point)
    err = float(np.sum((problem.design @ point.values - y_ref) ** 2))
    print(f"  {sweep:5d}   {err:10.3e}   {cert.gap:9.3e}")
    if err < 1e-22:
        break

final = gl.certificate(problem, penalty, beta)
print(f"\nfinal certificate norm: {final.w_norm:.3e}")
print(f"sweeps: {trace.sweeps}, converged: {trace.converged}")
print("the gap bound holds at every sweep and shrinks as the sweeps converge")
