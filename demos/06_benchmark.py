"""
Timing the exact updates against proximal gradient
==================================================

Exact block descent pays a one-time eigendecomposition per active group
and then gets each group's optimum in a handful of scalar Newton steps.
Proximal gradient pays a matrix product per iteration and inches along.
On moderately sized problems with correlated covariates the trade goes
clearly to the exact updates; this script measures a small grid of
within-group correlation a and between-group similarity b.

tools/paper_compare.py runs the full comparison, with the paper's
inexact block step as a third solver and every solver stopped at the
exact solver's KKT ratio:

    python3 tools/paper_compare.py --trials 20 --grid "a=0.8,b=0.2,K=10"
"""

import time

import numpy as np

import exactgl as gl

TRIALS = 5
print(f"{TRIALS} trials per cell, 5-rung penalty ladder, n = 50, "
      f"K = 10 groups of 10\n")
print("    a     b    exact (ms)   proximal (ms)   ratio")

for a in (0.2, 0.8):
    for b in (0.2, 0.8):
        exact_times, prox_times = [], []
        for trial in range(TRIALS):
            config = gl.SimulationConfig(n_samples=50, n_groups=10,
                                         group_size=10, a=a, b=b, seed=trial)
            problem, _ = gl.sample_problem(config)
            ladder = gl.penalty_ladder(problem, 5)

            start = time.perf_counter()
            gl.solve_path(problem, ladder.values)
            exact_times.append(time.perf_counter() - start)

            # each rung stops at ||w|| <= 1e-8 (1 + max|X'y|)
            scale = 1.0 + float(np.abs(problem.design.T @ problem.y).max())
            start = time.perf_counter()
            warm = None
            for lam in ladder.values:
                warm, trace = gl.fista_solve(
                    problem, gl.GroupLassoPenalty(lam),
                    gl.SolveOptions(tol=1e-8 * scale / lam, max_sweeps=50_000,
                                    initial=warm))
                if not trace.converged:
                    raise SystemExit(f"FISTA missed its KKT ratio at {lam:g}")
            prox_times.append(time.perf_counter() - start)

        te = 1e3 * np.mean(exact_times)
        tp = 1e3 * np.mean(prox_times)
        print(f"  {a:.1f}   {b:.1f}   {te:10.1f}   {tp:13.1f}   {tp / te:5.1f}x")

print("\nhigh within-group correlation (a) favors the exact update most;")
print("high between-group similarity (b) activates more groups and so")
print("costs more one-time eigendecompositions.")
