"""
Why exact group updates matter: the zero trap
==============================================

A group's 2-norm penalty is not separable over coordinates, and that has a
real failure mode: plain one-coordinate-at-a-time descent can sit at zero
forever on a group whose joint signal is strong but whose per-coordinate
signal is weak.

The smallest such case: two covariates forming one group, identity design,

    y = (1, 1),  penalty weight 1.

Fixing the second coordinate at zero, the best first coordinate is zero,
and vice versa, so coordinate descent started at zero never moves.  The
actual optimum is nonzero in both coordinates.

The exact group update sidesteps this entirely because it minimizes over
the whole group at once via one univariate root find.
"""

import numpy as np

import exactgl as gl
from exactgl.problem import soft_threshold

problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
penalty = gl.GroupLassoPenalty(1.0)

# .. plain coordinate descent: each scalar update is a soft threshold
#    as long as the rest of the group is zero ..
x = np.zeros(2)
for sweep in range(10):
    for j in range(2):
        rest = x.copy()
        rest[j] = 0.0
        partial = problem.y - problem.design @ rest
        x[j] = soft_threshold(problem.design[:, j] @ partial, penalty.lam)
print("coordinate descent after 10 sweeps:", x)

# .. the exact block update escapes in a single sweep ..
beta, trace = gl.solve_group_lasso(problem, penalty)
print("exact group descent:              ", beta.values)
print("true optimum:                     ", np.full(2, 1 - np.sqrt(2) / 2))
print(f"sweeps: {trace.sweeps}, converged: {trace.converged}")

value_stuck = gl.objective(problem, penalty,
                           gl.Coefficients(np.zeros(2), [2]))
value_solved = gl.objective(problem, penalty, beta)
print(f"objective at zero   : {value_stuck:.6f}")
print(f"objective at optimum: {value_solved:.6f}")
