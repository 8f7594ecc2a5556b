import numpy as np
import pytest

import exactgl as gl
from helpers import SQRT2, TRAP_OPTIMUM, random_problem, trap_problem


def test_objective_at_zero_is_half_squared_response():
    problem, penalty = trap_problem()
    beta = gl.Coefficients.zeros(problem.group_sizes)
    assert gl.objective(problem, penalty, beta) == pytest.approx(1.0, abs=1e-15)


def test_objective_at_trap_optimum():
    # hand substitution: 0.5*2*(sqrt2/2)^2 + (1 - sqrt2/2)*sqrt2
    problem, penalty = trap_problem()
    beta = gl.Coefficients([TRAP_OPTIMUM, TRAP_OPTIMUM], [2])
    expected = 0.5 + SQRT2 - 1.0
    assert gl.objective(problem, penalty, beta) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.914214, abs=1e-6)


def test_objective_dimension_mismatch():
    problem, penalty = trap_problem()
    with pytest.raises(gl.DimensionMismatchError):
        gl.objective(problem, penalty, gl.Coefficients([1.0, 2.0, 3.0], [3]))


def test_penalty_validation():
    with pytest.raises(ValueError):
        gl.GroupLassoPenalty(0.0)
    with pytest.raises(ValueError):
        gl.GroupLassoPenalty(-1.0)
    with pytest.raises(ValueError):
        gl.SparseGroupLassoPenalty(1.0, 0.0)
    with pytest.raises(ValueError):
        gl.SparseGroupLassoPenalty(0.0, 1.0)


def test_sparse_objective_with_vanishing_l1_matches_group_lasso():
    rng = np.random.default_rng(7)
    problem = random_problem(rng)
    beta = gl.Coefficients(rng.standard_normal(problem.n_features),
                           problem.group_sizes)
    plain = gl.objective(problem, gl.GroupLassoPenalty(0.8), beta)
    nearly = gl.objective(problem, gl.SparseGroupLassoPenalty(0.8, 1e-300), beta)
    assert nearly == plain


def test_partial_residual_trivial_cases():
    problem, _ = trap_problem()
    zero = gl.Coefficients.zeros(problem.group_sizes)
    np.testing.assert_array_equal(gl.partial_residual(problem, zero, 0), problem.y)
    # single group: exclusion sum is empty regardless of beta
    beta = gl.Coefficients([2.0, -1.0], [2])
    np.testing.assert_allclose(gl.partial_residual(problem, beta, 0), problem.y)


def test_partial_residual_two_identity_groups():
    X = np.hstack([np.eye(2), np.eye(2)])
    y = np.array([3.0, 5.0])
    problem = gl.GroupedProblem(y, X, [2, 2])
    beta = gl.Coefficients([1.0, 0.0, 0.0, 1.0], [2, 2])
    np.testing.assert_allclose(gl.partial_residual(problem, beta, 0),
                               y - np.array([0.0, 1.0]), atol=1e-15)


def test_partial_residual_index_out_of_range():
    problem, _ = trap_problem()
    beta = gl.Coefficients.zeros(problem.group_sizes)
    with pytest.raises(IndexError):
        gl.partial_residual(problem, beta, 1)
    with pytest.raises(IndexError):
        gl.partial_residual(problem, beta, -1)


def test_partial_residual_matches_full_residual_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        problem = random_problem(rng)
        beta = gl.Coefficients(rng.standard_normal(problem.n_features),
                               problem.group_sizes)
        full = problem.y - problem.design @ beta.values
        for k in range(problem.n_groups):
            expected = full + problem.group_matrix(k) @ beta.group(k)
            np.testing.assert_allclose(gl.partial_residual(problem, beta, k),
                                       expected, atol=1e-12)


def test_objective_invariant_under_group_permutation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        problem = random_problem(rng)
        beta = gl.Coefficients(rng.standard_normal(problem.n_features),
                               problem.group_sizes)
        perm = rng.permutation(problem.n_groups)
        cols = np.concatenate([np.arange(problem.n_features)[problem.group_slice(k)]
                               for k in perm])
        permuted = gl.GroupedProblem(problem.y, problem.design[:, cols],
                                     problem.group_sizes[perm])
        beta_perm = gl.Coefficients(beta.values[cols], problem.group_sizes[perm])
        for penalty in (gl.GroupLassoPenalty(0.7),
                        gl.SparseGroupLassoPenalty(0.7, 0.3)):
            assert gl.objective(problem, penalty, beta) == pytest.approx(
                gl.objective(permuted, penalty, beta_perm), rel=1e-12)


def test_grouped_problem_validation():
    with pytest.raises(gl.DimensionMismatchError):
        gl.GroupedProblem([1.0], np.eye(2), [2])        # y length
    with pytest.raises(gl.DimensionMismatchError):
        gl.GroupedProblem([1.0, 2.0], np.eye(2), [3])   # partition sum
    with pytest.raises(gl.DimensionMismatchError):
        gl.GroupedProblem([1.0, 2.0], np.eye(2), [2, 0])
    with pytest.raises(gl.DimensionMismatchError):
        gl.GroupedProblem([1.0, 2.0], np.eye(2), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grouped_problem_rejects_non_finite_data(bad):
    y, X = np.array([1.0, 2.0]), np.eye(2)
    y_bad = y.copy()
    y_bad[1] = bad
    X_bad = X.copy()
    X_bad[0, 1] = bad
    for args in ((y_bad, X), (y, X_bad)):
        with pytest.raises(ValueError, match="finite") as info:
            gl.GroupedProblem(*args, [2])
        assert not isinstance(info.value, gl.DimensionMismatchError)


def test_coefficients_partition_and_views():
    beta = gl.Coefficients([1.0, 2.0, 3.0], [2, 1])
    np.testing.assert_array_equal(beta.group(0), [1.0, 2.0])
    np.testing.assert_array_equal(beta.group(1), [3.0])
    beta.set_group(1, [9.0])
    assert beta.values[2] == 9.0
    other = beta.copy()
    other.set_group(0, [0.0, 0.0])
    assert beta.values[0] == 1.0
    np.testing.assert_allclose(beta.group_norms(),
                               [np.hypot(1.0, 2.0), 9.0])
    with pytest.raises(gl.DimensionMismatchError):
        gl.Coefficients([1.0, 2.0], [3])
