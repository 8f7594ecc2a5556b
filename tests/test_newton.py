"""Newton bursts of covariance mode (n > p), refereed by FISTA and the gap."""

import numpy as np
import pytest

import exactgl as gl
from exactgl import group_lasso
from helpers import fitted, path_penalty


def _tall(kind, seed, scale=1.0):
    """n = 60 > p; the odd-numbered groups carry no signal."""
    rng = np.random.default_rng(seed)
    if kind == "duplicated":
        # the two last single-column groups copy the two before them
        sizes = [3] * 6 + [1] * 4
        X = rng.standard_normal((60, 22))
        X[:, 20:] = X[:, 18:20]
    else:
        sizes = [3] * 8
        X = rng.standard_normal((60, 24))
        if kind == "dependent":
            X[:, 21] = X[:, 0] - 2.0 * X[:, 4]
            X[:, 22] = 0.5 * X[:, 7]
        elif kind == "column-scales":
            X *= np.logspace(-3, 3, 24)[rng.permutation(24)]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    truth = rng.standard_normal(X.shape[1]) * (owner % 2 == 0)
    y = X @ truth + 0.3 * rng.standard_normal(60)
    return gl.GroupedProblem(scale * y, X, sizes)


def _check_rung(problem, penalty, beta, trace):
    """Converged, monotone, and within the gaps of an independent FISTA."""
    assert trace.converged
    obj = trace.objective_per_sweep
    assert np.all(np.diff(obj) <= 1e-12 * np.abs(obj[:-1]))
    ref, ref_trace = gl.fista_solve(problem, penalty, gl.SolveOptions(tol=1e-6))
    assert ref_trace.converged
    gap = gl.certificate(problem, penalty, beta).gap
    gap_ref = gl.certificate(problem, penalty, ref).gap
    assert (np.linalg.norm(fitted(problem, beta) - fitted(problem, ref))
            <= np.sqrt(gap) + np.sqrt(gap_ref))


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("kind, scale", [("dependent", 1.0), ("column-scales", 1.0),
                                         ("plain", 1e-8), ("plain", 1e8)])
def test_newton_paths_agree_with_fista(kind, scale, l1_ratio):
    steps = 0
    for seed in range(3):
        problem = _tall(kind, seed, scale)
        lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 7)
        path = gl.solve_path(problem, lambdas, gl.SolveOptions(tol=1e-8 * scale),
                             l1_ratio=l1_ratio)
        for lam, beta, trace in path:
            _check_rung(problem, path_penalty(lam, l1_ratio), beta, trace)
            steps += trace.newton_steps
    assert steps > 0


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_duplicated_columns_fail_the_cholesky_and_still_converge(
        monkeypatch, seed, l1_ratio):
    # start with both copies of each duplicated column nonzero and of one
    # sign: sweeps keep them so, and the Hessian is singular along
    # (e_j - e_copy) with no curvature from single-column groups.  The
    # factorization either raises or leaves a pivot within rounding of
    # zero; _cholesky returns None for both.
    real, failures = group_lasso._cholesky, []

    def counted(a):
        chol = real(a)
        if chol is None:
            failures.append(a.shape[0])
        return chol

    monkeypatch.setattr(group_lasso, "_cholesky", counted)
    problem = _tall("duplicated", seed)
    start = np.zeros(problem.n_features)
    start[18:] = 0.5 * np.tile(np.sign(problem.design[:, 18:20].T @ problem.y), 2)
    penalty = path_penalty(0.1 * gl.lambda_max(problem), l1_ratio)
    solve = gl.solve_group_lasso if l1_ratio is None else gl.solve_sparse_group_lasso
    beta, trace = solve(problem, penalty, gl.SolveOptions(
        initial=gl.Coefficients(start, problem.group_sizes)))
    assert failures
    _check_rung(problem, penalty, beta, trace)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_newton_steps_only_where_n_exceeds_p(monkeypatch, l1_ratio):
    wide, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=20, n_groups=30, group_size=3, a=0.5, b=0.3, seed=3))
    lambdas = gl.lambda_max(wide) * 0.5 ** np.arange(1, 8)
    path = gl.solve_path(wide, lambdas, l1_ratio=l1_ratio)
    assert sum(trace.sweeps - trace.full_sweeps for _, _, trace in path) > 0
    assert all(trace.newton_steps == 0 for _, _, trace in path)

    rng = np.random.default_rng(65)
    X = rng.standard_normal((500, 100))
    truth = rng.standard_normal(100) * (np.arange(100) < 50)
    tall = gl.GroupedProblem(X @ truth + rng.standard_normal(500), X, [10] * 10)
    lambdas = gl.lambda_max(tall) * 0.5 ** np.arange(1, 9)
    newton = gl.solve_path(tall, lambdas, l1_ratio=l1_ratio)
    monkeypatch.setattr(group_lasso, "NEWTON_STEPS", 0)
    sweeps_only = gl.solve_path(tall, lambdas, l1_ratio=l1_ratio)
    assert sum(trace.newton_steps for _, _, trace in newton) > 0
    assert (sum(trace.sweeps for _, _, trace in newton)
            < sum(trace.sweeps for _, _, trace in sweeps_only))
