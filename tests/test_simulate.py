import tracemalloc

import numpy as np
import pytest

import exactgl as gl
from exactgl.simulate import true_coefficients
from helpers import (SQRT2, TRAP_OPTIMUM, covariance_factor, covariance_matrix,
                     dense_sample_problem, trap_problem)

AB_PAIRS = [(a, b) for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8)]

# (n, K, group_size, a, b, seed) of every dataset the four benchmark
# workloads generate: paper-grid, deep-ladder, sparse-wide and tall
WORKLOAD_CONFIGS = (
    [(50, K, 10, a, b, 0) for a, b in AB_PAIRS for K in (10, 20, 40, 80)]
    + [(50, 40, 10, 0.8, 0.2, 1)]
    + [(50, 10, 12, 0.8, 0.2, s) for s in range(5)]
    + [(10_000, 40, 10, 0.5, 0.8, 0)])


def test_identity_covariance_when_uncorrelated():
    config = gl.SimulationConfig(n_groups=3, group_size=2, a=0.0, b=0.0)
    np.testing.assert_allclose(covariance_factor(config), np.eye(6),
                               atol=1e-14)
    np.testing.assert_allclose(covariance_matrix(config), np.eye(6),
                               atol=1e-14)


def test_factor_reconstructs_covariance():
    config = gl.SimulationConfig(n_groups=3, group_size=2, a=0.5, b=0.2)
    F = covariance_factor(config)
    sigma = covariance_matrix(config)
    assert np.max(np.abs(F @ F.T - sigma)) <= 1e-10


def test_covariance_eigenvalues_bounded_below():
    # eigenvalues of a Kronecker product are products of the factors'
    for a, b in AB_PAIRS:
        config = gl.SimulationConfig(n_groups=4, group_size=3, a=a, b=b)
        eigs = np.linalg.eigvalsh(covariance_matrix(config))
        assert eigs.min() >= (1 - a) * (1 - b) - 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        gl.SimulationConfig(a=1.0, b=0.2)
    with pytest.raises(ValueError):
        gl.SimulationConfig(a=0.2, b=-0.1)
    with pytest.raises(ValueError):
        gl.SimulationConfig(n_samples=0)


@pytest.mark.parametrize("field, value", [
    ("n_groups", 2.5), ("n_samples", 10.5), ("group_size", 2.0),
    ("n_groups", True), ("n_samples", np.float64(3.0)), ("seed", -1),
    ("seed", 1.5), ("seed", None)])
def test_config_rejects_non_integer_or_negative_fields(field, value):
    with pytest.raises(ValueError, match=field):
        gl.SimulationConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = gl.SimulationConfig(n_samples=np.int64(4), n_groups=np.int32(2),
                                 group_size=np.int64(3), seed=np.uint8(5))
    assert gl.sample_problem(config)[0].design.shape == (4, 6)


def _assert_matches_dense(config):
    problem, beta0 = gl.sample_problem(config)
    dense, dense_beta0 = dense_sample_problem(config)
    assert np.array_equal(beta0.values, dense_beta0.values)
    for got, want in ((problem.design, dense.design), (problem.y, dense.y)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("a, b", AB_PAIRS + [(0.0, 0.0), (0.99, 0.99)])
def test_sampling_matches_dense_kronecker_product(a, b):
    for K in (1, 2, 10, 80):
        for g in (1, 3, 10):
            _assert_matches_dense(gl.SimulationConfig(
                n_samples=7, n_groups=K, group_size=g, a=a, b=b, seed=K + g))


@pytest.mark.parametrize("n, K, g, a, b, seed", WORKLOAD_CONFIGS)
def test_benchmark_datasets_match_dense_kronecker_product(n, K, g, a, b, seed):
    _assert_matches_dense(gl.SimulationConfig(
        n_samples=n, n_groups=K, group_size=g, a=a, b=b, seed=seed))


def _sampling_peak_bytes(config):
    tracemalloc.start()
    try:
        gl.sample_problem(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_peak_memory_without_the_p_by_p_factor():
    # p = 800: the dense factor alone would be 5.1 MB, the n x p draw is 0.32 MB
    config = gl.SimulationConfig(n_samples=50, n_groups=80, group_size=10)
    assert _sampling_peak_bytes(config) < 2.5e6


def test_sampling_peak_memory_at_p_20000():
    # a dense factor would be 3.2 GB; allow four n x p arrays
    config = gl.SimulationConfig(n_samples=20, n_groups=400, group_size=50)
    assert _sampling_peak_bytes(config) < 4 * 20 * 20_000 * 8


def test_noise_variance_formula():
    # beta0' Sigma beta0 over the two active groups: (2 + 2b) * (g + g(g-1)a)
    config = gl.SimulationConfig(n_groups=10, group_size=10, a=0.5, b=0.5)
    beta0 = true_coefficients(config)
    quad = float(beta0.values @ covariance_matrix(config) @ beta0.values)
    assert quad == pytest.approx((2 + 2 * 0.5) * (10 + 90 * 0.5), abs=1e-9)
    assert 0.01 * quad == pytest.approx(1.65, abs=1e-10)

    plain = gl.SimulationConfig(n_groups=5, group_size=10, a=0.0, b=0.0)
    beta0 = true_coefficients(plain)
    quad = float(beta0.values @ covariance_matrix(plain) @ beta0.values)
    assert 0.01 * quad == pytest.approx(0.2, abs=1e-12)


def test_sampling_is_deterministic():
    config = gl.SimulationConfig(n_groups=3, group_size=2, a=0.5, b=0.2,
                                 n_samples=8, seed=123)
    p1, b1 = gl.sample_problem(config)
    p2, b2 = gl.sample_problem(config)
    assert np.array_equal(p1.design, p2.design)
    assert np.array_equal(p1.y, p2.y)
    assert np.array_equal(b1.values, b2.values)
    other = gl.sample_problem(gl.SimulationConfig(
        n_groups=3, group_size=2, a=0.5, b=0.2, n_samples=8, seed=124))[0]
    assert not np.array_equal(p1.design, other.design)


def test_sample_shapes_and_truth():
    config = gl.SimulationConfig(n_samples=50, n_groups=10, group_size=10,
                                 a=0.2, b=0.8, seed=5)
    problem, beta0 = gl.sample_problem(config)
    assert problem.design.shape == (50, 100)
    np.testing.assert_array_equal(beta0.group(0), np.ones(10))
    np.testing.assert_array_equal(beta0.group(1), np.ones(10))
    assert not beta0.values[20:].any()


def test_empirical_covariance_converges():
    config = gl.SimulationConfig(n_samples=20_000, n_groups=3, group_size=2,
                                 a=0.5, b=0.2, seed=7)
    problem, _ = gl.sample_problem(config)
    empirical = problem.design.T @ problem.design / config.n_samples
    assert np.max(np.abs(empirical - covariance_matrix(config))) <= 0.05


def test_penalty_ladder_values():
    problem, _ = trap_problem()
    ladder = gl.penalty_ladder(problem, 5)
    np.testing.assert_allclose(
        ladder.values, SQRT2 * 0.5 ** np.arange(1, 6), atol=1e-14)
    short = gl.penalty_ladder(problem, 1)
    np.testing.assert_allclose(short.values, [SQRT2 / 2], atol=1e-15)
    assert np.all(np.diff(ladder.values) < 0)


@pytest.mark.parametrize("length", [2.5, 3.0, True, None])
def test_penalty_ladder_rejects_a_non_integer_length(length):
    with pytest.raises(ValueError, match="ladder length"):
        gl.penalty_ladder(trap_problem()[0], length)


def test_penalty_ladder_accepts_a_numpy_integer_length():
    assert gl.penalty_ladder(trap_problem()[0], np.int64(3)).values.shape == (3,)


def test_penalty_ladder_degenerate_problem():
    zero_y = gl.GroupedProblem([0.0, 0.0], np.eye(2), [2])
    with pytest.raises(ValueError):
        gl.penalty_ladder(zero_y)
    with pytest.raises(ValueError):
        gl.penalty_ladder(trap_problem()[0], 0)


def test_ladder_validation():
    for bad in ([], [[1.0], [0.5]]):
        with pytest.raises(ValueError, match="1-D and nonempty"):
            gl.PenaltyLadder(values=bad)
    with pytest.raises(ValueError):
        gl.PenaltyLadder(values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        gl.PenaltyLadder(values=np.array([1.0, -0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            gl.PenaltyLadder(values=np.array([1.0, bad, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            gl.PenaltyLadder(values=np.array([bad, 1.0]))


def test_bounds_for_ladder():
    problem, _ = trap_problem()
    ladder = gl.PenaltyLadder(values=np.array([2.0, 1.0]))  # first >= lambda_max
    solutions = []
    for lam in ladder.values:
        beta, _ = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam))
        solutions.append(beta)
    filled = gl.bounds_for_ladder(ladder, solutions)
    assert filled.bounds[0] == 0.0
    assert filled.bounds[1] == pytest.approx(SQRT2 - 1.0, abs=1e-9)
    with pytest.raises(ValueError):
        gl.bounds_for_ladder(ladder, solutions[:1])


def test_bounds_for_ladder_sums_group_norms():
    ladder = gl.PenaltyLadder(values=np.array([3.0, 2.0, 1.0]))
    solutions = [gl.Coefficients.zeros([2, 2]),
                 gl.Coefficients([TRAP_OPTIMUM, TRAP_OPTIMUM], [2]),
                 gl.Coefficients([1.0, 0.0, 0.6, 0.8], [2, 2])]
    filled = gl.bounds_for_ladder(ladder, solutions)
    assert filled.bounds[0] == 0.0
    assert filled.bounds[1] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    assert filled.bounds[2] == pytest.approx(2.0, abs=1e-12)


def test_bounds_nondecreasing_along_simulated_path():
    config = gl.SimulationConfig(n_samples=30, n_groups=4, group_size=3,
                                 a=0.5, b=0.2, seed=11)
    problem, _ = gl.sample_problem(config)
    ladder = gl.penalty_ladder(problem, 5)
    results = gl.solve_path(problem, ladder.values)
    filled = gl.bounds_for_ladder(ladder, [b for _, b, _ in results])
    # informational on typical instances; holds on this seed
    assert np.all(np.diff(filled.bounds) >= -1e-12)
