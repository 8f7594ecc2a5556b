"""End-to-end acceptance checks, one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criterion 5 (monotone descent) is enforced on every solver
run in this module: the _run_* helpers assert it before registering the
trace, and the dedicated test reports over everything registered.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

import exactgl as gl
from exactgl.cli import _timed_path
from exactgl.problem import soft_threshold
from exactgl.secular import solve_secular
from exactgl.simulate import (covariance_factor, covariance_matrix,
                              true_coefficients)
from exactgl.sparse_group_lasso import (SubproblemStatus, signed_subproblem,
                                        zero_check)
from helpers import SQRT2, TRAP_OPTIMUM, fitted, random_problem, trap_problem

_TRACES = []


def _register(trace):
    assert np.all(np.diff(trace.objective_per_sweep) <= 1e-12), \
        "objective increased during a sweep"
    _TRACES.append(trace)
    return trace


def _run_gl(problem, lam, options=None, on_sweep=None):
    beta, trace = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam),
                                       options, on_sweep=on_sweep)
    _register(trace)
    return beta, trace


def _run_sgl(problem, lam1, lam2, options=None):
    beta, trace = gl.solve_sparse_group_lasso(
        problem, gl.SparseGroupLassoPenalty(lam1, lam2), options)
    _register(trace)
    return beta, trace


def _report(num, text):
    print(f"[PASS] criterion {num:2d}: {text}")


def _pure_coordinate_descent(problem, lam, sweeps=50):
    """Single-coordinate descent on the group lasso objective (test-only).

    When the rest of a coordinate's group is zero the group norm reduces
    to |t| and the exact coordinate minimizer is a scalar soft threshold;
    otherwise the coordinate objective is smooth and a golden section
    handles it.
    """
    beta = gl.Coefficients.zeros(problem.group_sizes)
    x = beta.values
    for _ in range(sweeps):
        for k in range(problem.n_groups):
            sl = problem.group_slice(k)
            for j in range(sl.start, sl.stop):
                col = problem.design[:, j]
                saved = x[j]
                x[j] = 0.0
                resid_j = problem.y - problem.design @ x
                rest = np.linalg.norm(np.delete(x[sl], j - sl.start))
                if rest == 0.0:
                    shrunk = soft_threshold(col @ resid_j, lam)
                    x[j] = float(shrunk) / float(col @ col)
                else:
                    x[j] = saved
                    lo, hi = saved - 2.0, saved + 2.0
                    phi = (np.sqrt(5) - 1) / 2
                    a, b = lo, hi
                    for _ in range(60):
                        c, d = b - phi * (b - a), a + phi * (b - a)
                        x[j] = c
                        fc = gl.objective(problem, gl.GroupLassoPenalty(lam), beta)
                        x[j] = d
                        fd = gl.objective(problem, gl.GroupLassoPenalty(lam), beta)
                        if fc <= fd:
                            b = d
                        else:
                            a = c
                    x[j] = 0.5 * (a + b)
    return beta


def test_criterion_01_zero_trap():
    start = time.perf_counter()
    problem, penalty = trap_problem()
    beta, trace = _run_gl(problem, 1.0)
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-8)
    assert trace.converged

    stuck = _pure_coordinate_descent(problem, 1.0, sweeps=50)
    np.testing.assert_array_equal(stuck.values, [0.0, 0.0])

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"exact group update escapes the zero trap that pins "
               f"coordinate descent ({elapsed:.2f}s)")


def test_criterion_02_secular_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    from helpers import random_line_search
    for _ in range(1000):
        lsp = random_line_search(rng, max_q=20)
        result = solve_secular(lsp)
        assert result.residual <= 1e-12
        assert abs(np.linalg.norm(result.alpha_rotated) - result.r) \
            <= 1e-8 * result.r
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"1000 random secular solves hit |f(r)-1| <= 1e-12 with "
               f"||alpha|| = r ({elapsed:.2f}s)")


def test_criterion_03_reference_solver_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(203)
    for trial in range(200):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        lam = top * 2.0 ** -rng.uniform(0.0, 5.0)

        beta_exact, _ = _run_gl(problem, lam)
        penalty = gl.GroupLassoPenalty(lam)
        beta_ref, iters = gl.fista_solve(problem, penalty,
                                         gl.OracleOptions(tol=1e-10))
        assert iters < 200_000
        ours = gl.objective(problem, penalty, beta_exact)
        theirs = gl.objective(problem, penalty, beta_ref)
        assert abs(ours - theirs) <= 1e-6 * (1.0 + abs(theirs))
        assert np.max(np.abs(fitted(problem, beta_exact)
                             - fitted(problem, beta_ref))) <= 1e-5

        lam1 = top * 2.0 ** -rng.uniform(0.0, 5.0)
        lam2 = lam1 * rng.uniform(0.1, 1.0)
        beta_s, _ = _run_sgl(problem, lam1, lam2)
        sparse = gl.SparseGroupLassoPenalty(lam1, lam2)
        ref_s, iters_s = gl.fista_solve(problem, sparse,
                                        gl.OracleOptions(tol=1e-10))
        assert iters_s < 200_000
        ours_s = gl.objective(problem, sparse, beta_s)
        theirs_s = gl.objective(problem, sparse, ref_s)
        assert abs(ours_s - theirs_s) <= 1e-6 * (1.0 + abs(theirs_s))
        assert np.max(np.abs(fitted(problem, beta_s)
                             - fitted(problem, ref_s))) <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"200 problems x (plain, sparse): objectives within "
               f"1e-6 and fitted values within 1e-5 of the proximal "
               f"reference ({elapsed:.1f}s)")


def test_criterion_04_ground_truth_on_tiny_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(204)
    partitions = [[1], [2], [3], [1, 1], [2, 1], [1, 2], [1, 1, 1]]
    for trial in range(50):
        sizes = partitions[int(rng.integers(len(partitions)))]
        problem = random_problem(rng, sizes=sizes,
                                 n=int(rng.integers(6, 13)))
        top = gl.lambda_max(problem)
        beta_lse = gl.Coefficients(
            np.linalg.lstsq(problem.design, problem.y, rcond=None)[0],
            problem.group_sizes)
        reach = float(beta_lse.group_norms().sum())
        sparse = trial % 2 == 1
        if sparse:
            lam1 = top * 2.0 ** -rng.uniform(1.0, 3.0)
            lam2 = lam1 * rng.uniform(0.2, 0.8)
            penalty = gl.SparseGroupLassoPenalty(lam1, lam2)
            beta, _ = _run_sgl(problem, lam1, lam2)
            reach += (lam2 / lam1) * float(np.abs(beta_lse.values).sum())
        else:
            lam = top * 2.0 ** -rng.uniform(1.0, 3.0)
            penalty = gl.GroupLassoPenalty(lam)
            beta, _ = _run_gl(problem, lam)
        half_width = reach + 0.3
        resolution = max(2 * half_width / 60.0, 0.01)
        gridded = gl.grid_refine(problem, penalty,
                                 (-half_width, half_width), resolution)
        ours = gl.objective(problem, penalty, beta)
        grid_val = gl.objective(problem, penalty, gridded)
        assert abs(ours - grid_val) <= 1e-4
        assert ours <= grid_val + 1e-4  # the solver is never worse
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"50 dense-grid ground truths agree within 1e-4 "
               f"({elapsed:.1f}s)")


def test_criterion_05_monotone_descent():
    rng = np.random.default_rng(205)
    for _ in range(20):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        _run_gl(problem, 0.3 * top)
        _run_sgl(problem, 0.25 * top, 0.1 * top)
    assert len(_TRACES) >= 40
    for trace in _TRACES:
        assert np.all(np.diff(trace.objective_per_sweep) <= 1e-12)
    _report(5, f"per-sweep objectives non-increasing across all "
               f"{len(_TRACES)} solver runs registered so far")


def test_criterion_06_certificates_and_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(206)
    for _ in range(100):
        problem = random_problem(rng, max_groups=4, max_size=3)
        top = gl.lambda_max(problem)
        lam = top * 2.0 ** -rng.uniform(0.5, 4.0)
        penalty = gl.GroupLassoPenalty(lam)
        ref, iters = gl.fista_solve(problem, penalty,
                                    gl.OracleOptions(tol=1e-10))
        assert iters < 200_000
        y_ref = fitted(problem, ref)
        iterates = []
        beta, trace = _run_gl(problem, lam,
                              on_sweep=lambda s, b: iterates.append(b.copy()))
        assert trace.converged
        for point in iterates:
            cert = gl.certificate(problem, penalty, point)
            err = float(np.sum((fitted(problem, point) - y_ref) ** 2))
            assert err <= cert.gap + 1e-8
        scale = 1.0 + float(np.abs(problem.design.T @ problem.y).max())
        final = gl.certificate(problem, penalty, beta)
        assert final.w_norm <= 1e-6 * scale
    elapsed = time.perf_counter() - start
    _report(6, f"the gap bound dominated the true fitted-value error at every "
               f"sweep of 100 runs; final certificates below 1e-6 scale "
               f"({elapsed:.1f}s)")


def test_criterion_07_lambda_max_threshold():
    rng = np.random.default_rng(207)
    checked = 0
    while checked < 100:
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        if top == 0.0:
            continue
        above, _ = _run_gl(problem, top * (1 + 1e-6))
        assert not above.values.any()
        below, _ = _run_gl(problem, top * (1 - 1e-2))
        assert below.values.any()
        checked += 1
    _report(7, "penalty threshold exact on 100 problems: zero above, "
               "active below")


def test_criterion_08_unique_feasible_sign():
    rng = np.random.default_rng(208)
    informative = 0
    for _ in range(100):
        problem = random_problem(rng, sizes=[2], n=int(rng.integers(5, 15)))
        g = problem.group_matrix(0).T @ problem.y
        lam1 = float(rng.uniform(0.1, 0.6)) * float(np.linalg.norm(g))
        lam2 = float(rng.uniform(0.05, 0.4)) * float(np.abs(g).max())
        if zero_check(g, lam1, lam2):
            continue
        informative += 1
        cache = gl.SpectrumCache(problem)
        feasible = []
        for signs in itertools.product((-1, 0, 1), repeat=2):
            if not any(signs):
                continue
            res = signed_subproblem(problem, 0, g, signs, lam1, lam2, cache)
            if res.status is SubproblemStatus.FEASIBLE:
                feasible.append(signs)
        assert len(feasible) == 1

        penalty = gl.SparseGroupLassoPenalty(lam1, lam2)
        ref, _ = gl.fista_solve(problem, penalty, gl.OracleOptions(tol=1e-10))
        scale = float(np.linalg.norm(ref.values))
        ref_signs = tuple(
            int(np.sign(v)) if abs(v) > 1e-9 * scale else 0
            for v in ref.values)
        assert feasible[0] == ref_signs
    assert informative >= 60
    _report(8, f"exactly one feasible sign pattern on {informative} "
               f"informative two-wide problems, matching the reference signs")


def test_criterion_09_vanishing_l1_matches_group_lasso():
    rng = np.random.default_rng(209)
    for _ in range(50):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        lam1 = top * 2.0 ** -rng.uniform(1.0, 4.0)
        sparse_beta, _ = _run_sgl(problem, lam1, 1e-10)
        plain_beta, _ = _run_gl(problem, lam1)
        assert np.max(np.abs(fitted(problem, sparse_beta)
                             - fitted(problem, plain_beta))) <= 1e-4
    _report(9, "sparse solver at lam2 = 1e-10 reproduces group lasso fitted "
               "values within 1e-4 on 50 problems")


def test_criterion_10_simulation_fidelity():
    for a in (0.2, 0.5, 0.8):
        for b in (0.2, 0.5, 0.8):
            config = gl.SimulationConfig(n_groups=10, group_size=10, a=a, b=b)
            F = covariance_factor(config)
            sigma = covariance_matrix(config)
            assert np.max(np.abs(F @ F.T - sigma)) <= 1e-10
            beta0 = true_coefficients(config)
            quad = float(beta0.values @ sigma @ beta0.values)
            g = config.group_size
            hand = (2 + 2 * b) * (g + g * (g - 1) * a)
            assert abs(quad - hand) <= 1e-10 * max(1.0, hand)
            assert abs(0.01 * quad - 0.01 * hand) <= 1e-10
    _report(10, "covariance factor reconstructs Sigma to 1e-10 and the "
                "noise-variance formula matches the quadratic form on all "
                "nine (a, b) pairs")


def test_criterion_11_soft_timing_direction():
    start = time.perf_counter()
    sls_times, fista_times = [], []
    for trial in range(20):
        config = gl.SimulationConfig(n_samples=50, n_groups=10, group_size=10,
                                     a=0.8, b=0.2, seed=1100 + trial)
        problem, _ = gl.sample_problem(config)
        ladder = gl.penalty_ladder(problem, 5)
        t_sls, _, _ = _timed_path(problem, ladder, "sls", 1e-8, 50_000)
        t_fista, _, _ = _timed_path(problem, ladder, "fista", 1e-8, 50_000)
        sls_times.append(t_sls)
        fista_times.append(t_fista)
    mean_sls = float(np.mean(sls_times))
    mean_fista = float(np.mean(fista_times))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    if mean_sls < mean_fista:
        _report(11, f"exact block descent paths mean {mean_sls * 1e3:.1f} ms "
                    f"vs proximal-gradient {mean_fista * 1e3:.1f} ms "
                    f"({elapsed:.1f}s)")
    else:
        warnings.warn(
            f"soft timing check: exact block descent ({mean_sls:.4f}s) was "
            f"not faster than the proximal reference ({mean_fista:.4f}s) "
            "on this hardware", RuntimeWarning)
        print(f"[WARN] criterion 11: timing direction not confirmed "
              f"({mean_sls:.4f}s vs {mean_fista:.4f}s)")
