import numpy as np
import pytest

import exactgl as gl
from exactgl import baselines
from exactgl.baselines import (CHECK_EVERY, _batch_objective, lipschitz_constant,
                               prox_group_norm, prox_sparse_group)
from exactgl.group_lasso import group_update
from helpers import TRAP_OPTIMUM, path_penalty, random_problem, trap_problem


def test_prox_group_norm_values():
    z = np.array([1.0, 1.0])
    np.testing.assert_allclose(prox_group_norm(z, 1.0, 1.0),
                               [TRAP_OPTIMUM] * 2, atol=1e-15)
    np.testing.assert_array_equal(prox_group_norm(z, 1.0, 2.0), [0.0, 0.0])
    np.testing.assert_allclose(prox_group_norm(z, 1.0, 1e-12), z, atol=1e-10)
    np.testing.assert_array_equal(prox_group_norm(np.zeros(3), 1.0, 1.0),
                                  np.zeros(3))


def test_prox_sparse_group_values():
    z = np.array([2.0])
    # soft threshold to 1.5 then shrink by 0.5/1.5
    np.testing.assert_allclose(prox_sparse_group(z, 1.0, 0.5, 0.5), [1.0],
                               atol=1e-14)
    small = np.array([0.3, -0.4])
    np.testing.assert_array_equal(prox_sparse_group(small, 1.0, 1.0, 0.5),
                                  [0.0, 0.0])
    almost = prox_sparse_group(z, 1.0, 0.7, 1e-300)
    np.testing.assert_allclose(almost, prox_group_norm(z, 1.0, 0.7))


def test_prox_group_matches_exact_update_on_orthonormal_design():
    rng = np.random.default_rng(51)
    for _ in range(10):
        A, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        residual = rng.standard_normal(10)
        problem = gl.GroupedProblem(residual, A, [4])
        cache = gl.SpectrumCache(problem)
        g = A.T @ residual
        lam = 0.4 * np.linalg.norm(g)
        update = group_update(problem, 0, g, lam, cache)
        np.testing.assert_allclose(update, prox_group_norm(g, 1.0, lam),
                                   atol=1e-10)


def test_lipschitz_constant_matches_eigenvalue():
    rng = np.random.default_rng(52)
    X = rng.standard_normal((15, 6))
    exact = float(np.linalg.eigvalsh(X.T @ X).max())
    assert lipschitz_constant(X) == pytest.approx(exact, rel=1e-5)


def test_fista_trap_problem():
    problem, penalty = trap_problem()
    beta, iters = gl.fista_solve(problem, penalty,
                                 gl.OracleOptions(tol=1e-8))
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-6)
    assert iters >= 1


def test_fista_zero_above_lambda_max():
    rng = np.random.default_rng(53)
    problem = random_problem(rng)
    lam = gl.lambda_max(problem) * 1.01
    beta, iters = gl.fista_solve(problem, gl.GroupLassoPenalty(lam))
    np.testing.assert_array_equal(beta.values, np.zeros(problem.n_features))


def test_fista_objective_matches_exact_solver():
    rng = np.random.default_rng(54)
    for _ in range(5):
        problem = random_problem(rng)
        penalty = gl.GroupLassoPenalty(0.4 * gl.lambda_max(problem))
        exact, _ = gl.solve_group_lasso(problem, penalty)
        approx, iters = gl.fista_solve(problem, penalty,
                                       gl.OracleOptions(tol=1e-10))
        assert iters < 200_000
        ours = gl.objective(problem, penalty, exact)
        theirs = gl.objective(problem, penalty, approx)
        assert abs(ours - theirs) <= 1e-8 * (1 + abs(theirs))


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_fista_returns_a_point_that_passed_its_certificate(l1_ratio):
    # the certificate is built every CHECK_EVERY iterations only, and the
    # point returned is one that passed it
    rng = np.random.default_rng(56)
    for _ in range(5):
        problem = random_problem(rng)
        penalty = path_penalty(0.3 * gl.lambda_max(problem), l1_ratio)
        beta, iters = gl.fista_solve(problem, penalty, gl.OracleOptions(tol=1e-9))
        assert iters % CHECK_EVERY == 0
        assert gl.certificate(problem, penalty, beta).w_norm <= 1e-9


def test_fista_max_iters_flag():
    rng = np.random.default_rng(55)
    problem = random_problem(rng)
    penalty = gl.GroupLassoPenalty(0.1 * gl.lambda_max(problem))
    with pytest.warns(RuntimeWarning):
        beta, iters = gl.fista_solve(problem, penalty,
                                     gl.OracleOptions(tol=1e-14, max_iters=3))
    assert iters == 3


@pytest.mark.parametrize("values, sizes", [(np.ones(4), [1, 3]),
                                           (np.ones(3), [3])])
def test_fista_initial_point_with_another_partition_fails_up_front(
        monkeypatch, values, sizes):
    rng = np.random.default_rng(56)
    problem = random_problem(rng, sizes=[2, 2], n=10)

    def no_power_iteration(design):
        raise AssertionError("the partition check must come first")

    monkeypatch.setattr(baselines, "lipschitz_constant", no_power_iteration)
    with pytest.raises(gl.DimensionMismatchError, match="partition"):
        gl.fista_solve(problem, gl.GroupLassoPenalty(0.1),
                       initial=gl.Coefficients(values, sizes))


@pytest.mark.parametrize("max_iters", [0, -3])
def test_oracle_options_reject_nonpositive_max_iters(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        gl.OracleOptions(max_iters=max_iters)


def test_grid_refine_trap_problem():
    problem, penalty = trap_problem()
    beta = gl.grid_refine(problem, penalty, (-2.0, 2.0), 0.01)
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-4)


def test_grid_refine_huge_penalty_returns_zero():
    problem, _ = trap_problem()
    beta = gl.grid_refine(problem, gl.GroupLassoPenalty(50.0), (-2.0, 2.0),
                          0.05)
    np.testing.assert_allclose(beta.values, [0.0, 0.0], atol=0.05)


def test_grid_refine_univariate_sparse():
    problem = gl.GroupedProblem([2.0, 0.0], np.array([[1.0], [0.0]]), [1])
    beta = gl.grid_refine(problem, gl.SparseGroupLassoPenalty(0.5, 0.5),
                          (-3.0, 3.0), 0.05)
    np.testing.assert_allclose(beta.values, [1.0], atol=1e-4)


def test_grid_refine_dimension_guard():
    rng = np.random.default_rng(56)
    problem = random_problem(rng, sizes=[4], n=10)
    with pytest.raises(ValueError):
        gl.grid_refine(problem, gl.GroupLassoPenalty(1.0), (-1.0, 1.0), 0.1)


def test_grid_refine_per_coordinate_boxes():
    problem, penalty = trap_problem()
    beta = gl.grid_refine(problem, penalty, [(-0.5, 1.0), (0.0, 0.8)], 0.02)
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-4)


def test_batch_objective_matches_objective_on_ragged_groups():
    rng = np.random.default_rng(57)
    problem = random_problem(rng, sizes=[1, 3, 2], n=12)
    candidates = rng.standard_normal((8, problem.n_features))
    for penalty in (gl.GroupLassoPenalty(0.7), gl.SparseGroupLassoPenalty(0.7, 0.3)):
        expected = [gl.objective(problem, penalty,
                                 gl.Coefficients(row, problem.group_sizes))
                    for row in candidates]
        np.testing.assert_allclose(_batch_objective(problem, penalty, candidates),
                                   expected, rtol=1e-12, atol=0)
