import warnings

import numpy as np
import pytest

import exactgl as gl
from exactgl import baselines
from exactgl.baselines import (CHECK_EVERY, _prox_all, lipschitz_constant,
                               prox_group_norm)
from exactgl.group_lasso import group_update
from exactgl.problem import penalty_weights, soft_threshold
from helpers import (TRAP_OPTIMUM, batch_objective, grid_refine, path_penalty,
                     random_problem, trap_problem)


def test_prox_group_norm_values():
    z = np.array([1.0, 1.0])
    np.testing.assert_allclose(prox_group_norm(z, 1.0, 1.0),
                               [TRAP_OPTIMUM] * 2, atol=1e-15)
    np.testing.assert_array_equal(prox_group_norm(z, 1.0, 2.0), [0.0, 0.0])
    np.testing.assert_allclose(prox_group_norm(z, 1.0, 1e-12), z, atol=1e-10)
    np.testing.assert_array_equal(prox_group_norm(np.zeros(3), 1.0, 1.0),
                                  np.zeros(3))


def _partition(sizes):
    """A problem that only carries the partition ``sizes`` for ``_prox_all``."""
    return gl.GroupedProblem(np.zeros(1), np.zeros((1, int(sum(sizes)))), sizes)


def test_prox_sparse_group_values():
    # the one-pass prox of the whole penalty on a single group
    z = np.array([2.0])
    # soft threshold to 1.5 then shrink by 0.5/1.5
    np.testing.assert_allclose(_prox_all(_partition([1]), 0.5, 0.5, z, 1.0),
                               [1.0], atol=1e-14)
    small = np.array([0.3, -0.4])
    np.testing.assert_array_equal(
        _prox_all(_partition([2]), 1.0, 0.5, small, 1.0), [0.0, 0.0])
    almost = _prox_all(_partition([1]), 0.7, 1e-300, z, 1.0)
    np.testing.assert_allclose(almost, prox_group_norm(z, 1.0, 0.7))


def test_a_penalty_that_underflows_in_the_step_shrinks_nothing():
    # t * lam1 rounds to 0: no group shrinks, and an all-zero group stays
    # zero instead of becoming 0 / 0
    problem = _partition([2, 3])
    z = np.array([3.0, 4.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(_prox_all(problem, 1e-320, 0.0, z, 1e-6), z)
        for part in (z[:2], z[2:]):
            np.testing.assert_array_equal(prox_group_norm(part, 1e-6, 1e-320), part)
    # through FISTA: a group of all-zero columns at a subnormal penalty
    X = 300 * np.random.default_rng(0).standard_normal((20, 6))
    X[:, 3:] = 0.0
    problem = gl.GroupedProblem(X[:, :3] @ np.array([1.0, -2.0, 0.5]), X, [3, 3])
    beta, trace = gl.fista_solve(problem, gl.GroupLassoPenalty(1e-320),
                                 gl.SolveOptions(max_sweeps=20))
    assert not trace.converged and trace.sweeps == 20
    assert np.isfinite(beta.values).all() and not beta.group(1).any()


@pytest.mark.parametrize("lam2", [0.0, 0.3])
def test_the_one_pass_prox_equals_the_per_group_prox(lam2):
    # random partitions of groups of 1 to 12, with all-zero groups, groups
    # the soft threshold zeroes and groups the shrink zeroes
    rng = np.random.default_rng(58)
    eps = np.finfo(np.float64).eps
    for _ in range(200):
        sizes = rng.integers(1, 13, size=int(rng.integers(1, 9)))
        problem = _partition(sizes)
        z = rng.standard_normal(problem.n_features) * rng.choice(
            [0.0, 0.1, 1.0, 10.0], size=problem.n_features)
        for k in rng.choice(problem.n_groups, size=problem.n_groups // 3):
            z[problem.group_slice(k)] = 0.0
        t, lam1 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _prox_all(problem, lam1, lam2, z, t)
        h = soft_threshold(z, t * lam2)
        for k in range(problem.n_groups):
            sl = problem.group_slice(k)
            slow = prox_group_norm(h[sl], t, lam1)
            # the two group norms differ by rounding only, a few ulps each
            assert np.all(np.abs(fast[sl] - slow) <= 4 * eps * np.abs(h[sl]))
            assert (fast[sl] == 0).all() == (slow == 0).all()


def test_prox_group_matches_exact_update_on_orthonormal_design():
    rng = np.random.default_rng(51)
    for _ in range(10):
        A, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        residual = rng.standard_normal(10)
        problem = gl.GroupedProblem(residual, A, [4])
        cache = gl.SpectrumCache(problem)
        g = A.T @ residual
        lam = 0.4 * np.linalg.norm(g)
        update = group_update(problem, 0, g, lam, cache, [0.0])
        np.testing.assert_allclose(update, prox_group_norm(g, 1.0, lam),
                                   atol=1e-10)


def test_lipschitz_constant_matches_eigenvalue():
    # from X'X when n >= p and from XX' when n < p: the same top eigenvalue
    rng = np.random.default_rng(52)
    for shape in ((15, 6), (6, 15)):
        X = rng.standard_normal(shape)
        exact = float(np.linalg.svd(X, compute_uv=False)[0] ** 2)
        assert lipschitz_constant(X) == pytest.approx(exact, rel=1e-12)


def test_fista_trap_problem():
    problem, penalty = trap_problem()
    beta, trace = gl.fista_solve(problem, penalty,
                                 gl.SolveOptions(tol=1e-8))  # lam = 1
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-6)
    assert trace.converged and trace.sweeps >= 1


def test_fista_zero_above_lambda_max():
    rng = np.random.default_rng(53)
    problem = random_problem(rng)
    lam = gl.lambda_max(problem) * 1.01
    beta, trace = gl.fista_solve(problem, gl.GroupLassoPenalty(lam))
    np.testing.assert_array_equal(beta.values, np.zeros(problem.n_features))
    assert trace.converged


def test_fista_objective_matches_exact_solver():
    rng = np.random.default_rng(54)
    for _ in range(5):
        problem = random_problem(rng)
        penalty = gl.GroupLassoPenalty(0.4 * gl.lambda_max(problem))
        exact, _ = gl.solve_group_lasso(problem, penalty)
        approx, trace = gl.fista_solve(problem, penalty,
                                       gl.SolveOptions(tol=1e-10 / penalty.lam))
        assert trace.converged
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
        tol = 1e-9 / penalty_weights(penalty)[0]
        beta, trace = gl.fista_solve(problem, penalty, gl.SolveOptions(tol=tol))
        assert trace.converged and trace.sweeps % CHECK_EVERY == 0
        assert gl.certificate(problem, penalty, beta).kkt_ratio <= tol


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_fista_returns_a_solve_trace(l1_ratio):
    # the exact solvers' contract: one objective per iteration after the
    # start, non-increasing under the restart, ending at the returned point
    rng = np.random.default_rng(59)
    problem = random_problem(rng)
    penalty = path_penalty(0.2 * gl.lambda_max(problem), l1_ratio)
    start = gl.Coefficients(rng.standard_normal(problem.n_features),
                            problem.group_sizes)
    beta, trace = gl.fista_solve(problem, penalty,
                                 gl.SolveOptions(tol=1e-9, initial=start))
    obj = trace.objective_per_sweep
    assert trace.converged and trace.sweeps == trace.full_sweeps > 0
    assert trace.newton_steps == trace.boundary_slack_accepts == 0
    assert len(obj) == trace.sweeps + 1 and trace.wall_time > 0
    assert obj[0] == gl.objective(problem, penalty, start)
    assert obj[-1] == gl.objective(problem, penalty, beta)
    assert np.all(np.diff(obj) <= 1e-12 * np.abs(obj[:-1]))
    assert gl.certificate(problem, penalty, beta).kkt_ratio <= 1e-9


def test_fista_on_an_all_zero_design_returns_zero():
    # every point fits alike, so zero, with the least penalty, is optimal
    problem = gl.GroupedProblem([1.0, 2.0, 3.0], np.zeros((3, 4)), [2, 2])
    start = gl.Coefficients(np.ones(4), [2, 2])
    beta, trace = gl.fista_solve(problem, gl.GroupLassoPenalty(0.5),
                                 gl.SolveOptions(initial=start))
    assert not beta.values.any()
    assert trace.converged and trace.sweeps == 0
    assert trace.objective_per_sweep.tolist() == [7.0]


def test_fista_max_iters_flag():
    # max_sweeps caps FISTA's iterations; a miss is reported, not warned
    rng = np.random.default_rng(55)
    problem = random_problem(rng)
    penalty = gl.GroupLassoPenalty(0.1 * gl.lambda_max(problem))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, trace = gl.fista_solve(problem, penalty,
                                     gl.SolveOptions(tol=1e-14, max_sweeps=3))
    assert (trace.sweeps, trace.full_sweeps, trace.converged) == (3, 3, False)
    assert len(trace.objective_per_sweep) == 4


@pytest.mark.parametrize("values, sizes", [(np.ones(4), [1, 3]),
                                           (np.ones(3), [3])])
def test_fista_initial_point_with_another_partition_fails_up_front(
        monkeypatch, values, sizes):
    rng = np.random.default_rng(56)
    problem = random_problem(rng, sizes=[2, 2], n=10)

    def no_lipschitz(design):
        raise AssertionError("the partition check must come first")

    monkeypatch.setattr(baselines, "lipschitz_constant", no_lipschitz)
    with pytest.raises(gl.DimensionMismatchError, match="partition"):
        gl.fista_solve(problem, gl.GroupLassoPenalty(0.1),
                       gl.SolveOptions(initial=gl.Coefficients(values, sizes)))


def test_grid_refine_trap_problem():
    problem, penalty = trap_problem()
    beta = grid_refine(problem, penalty, (-2.0, 2.0), 0.01)
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-4)


def test_grid_refine_huge_penalty_returns_zero():
    problem, _ = trap_problem()
    beta = grid_refine(problem, gl.GroupLassoPenalty(50.0), (-2.0, 2.0),
                          0.05)
    np.testing.assert_allclose(beta.values, [0.0, 0.0], atol=0.05)


def test_grid_refine_univariate_sparse():
    problem = gl.GroupedProblem([2.0, 0.0], np.array([[1.0], [0.0]]), [1])
    beta = grid_refine(problem, gl.SparseGroupLassoPenalty(0.5, 0.5),
                          (-3.0, 3.0), 0.05)
    np.testing.assert_allclose(beta.values, [1.0], atol=1e-4)


def test_grid_refine_dimension_guard():
    rng = np.random.default_rng(56)
    problem = random_problem(rng, sizes=[4], n=10)
    with pytest.raises(ValueError):
        grid_refine(problem, gl.GroupLassoPenalty(1.0), (-1.0, 1.0), 0.1)


def test_grid_refine_per_coordinate_boxes():
    problem, penalty = trap_problem()
    beta = grid_refine(problem, penalty, [(-0.5, 1.0), (0.0, 0.8)], 0.02)
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-4)


def test_batch_objective_matches_objective_on_ragged_groups():
    rng = np.random.default_rng(57)
    problem = random_problem(rng, sizes=[1, 3, 2], n=12)
    candidates = rng.standard_normal((8, problem.n_features))
    for penalty in (gl.GroupLassoPenalty(0.7), gl.SparseGroupLassoPenalty(0.7, 0.3)):
        expected = [gl.objective(problem, penalty,
                                 gl.Coefficients(row, problem.group_sizes))
                    for row in candidates]
        np.testing.assert_allclose(batch_objective(problem, penalty, candidates),
                                   expected, rtol=1e-12, atol=0)
