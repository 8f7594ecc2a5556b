"""
Within-group sparsity: the signed exact update
==============================================

Adding a 1-norm penalty on top of the group penalty selects groups AND
coordinates inside them.  The exact group update still exists, but it
needs the sign pattern of the group optimum: given signs, the 1-norm
becomes a linear shift and the same secular equation applies on the
support.  The solver therefore searches candidate sign patterns, with two
cheap accelerations:

  * last sweep's accepted pattern is tried first (signs stabilize near
    convergence, so this almost always succeeds immediately), and
  * the sign of the soft-thresholded gradient is tried second.

Exactly one candidate can be feasible, so acceptance is unambiguous.
"""

import numpy as np

import exactgl as gl
from exactgl.sparse_group_lasso import (SubproblemStatus, sign_order,
                                        signed_subproblem)

rng = np.random.default_rng(5)
n, sizes = 60, [4, 4, 4, 4, 4]
X = rng.standard_normal((n, sum(sizes)))
truth = np.zeros(sum(sizes))
truth[0:2] = [2.0, -1.5]      # group 0: two of four coordinates
truth[4:8] = [1.0, 1.0, -1.0, 0.5]  # group 1: all four
y = X @ truth + 0.1 * rng.standard_normal(n)
problem = gl.GroupedProblem(y, X, sizes)

top = gl.lambda_max(problem)
penalty = gl.SparseGroupLassoPenalty(0.05 * top, 0.02 * top)
beta, trace = gl.solve_sparse_group_lasso(problem, penalty)

print("truth support by group:")
print("  group 0: coordinates 0, 1 of 4")
print("  group 1: all 4 coordinates")
print("  groups 2-4: empty\n")
print("recovered support:")
for k in range(len(sizes)):
    coords = [int(c) for c in np.flatnonzero(np.abs(beta.group(k)) > 1e-10)]
    print(f"  group {k}: {coords if coords else 'empty'}")
print(f"\nsweeps: {trace.sweeps}, converged: {trace.converged}")

# .. how much sign searching actually happened ..
g = problem.group_matrix(0).T @ problem.y
cache = gl.SpectrumCache(problem)
tried = 0
for candidate in sign_order(g, penalty.lam2):
    tried += 1
    res = signed_subproblem(problem, 0, g, candidate, penalty.lam1,
                            penalty.lam2, cache, [0.0] * problem.n_groups)
    if res.status is SubproblemStatus.FEASIBLE:
        print(f"\ncold start on group 0: candidate {tried} of up to "
              f"{3 ** 4 - 1} was feasible: {candidate}, "
              f"norm {np.linalg.norm(res.alpha):.6f}")
        break

# .. sanity: the reference solver lands on the same objective ..
reference, ref_trace = gl.fista_solve(problem, penalty,
                                     gl.SolveOptions(tol=1e-9 / penalty.lam1))
if not ref_trace.converged:
    raise SystemExit("the FISTA reference missed its KKT ratio")
ours = gl.objective(problem, penalty, beta)
theirs = gl.objective(problem, penalty, reference)
print(f"objective: exact {ours:.8f} vs proximal reference {theirs:.8f}")
