import functools
import math

import numpy as np
import pytest

import exactgl as gl
from exactgl.baselines import _prox_all
from exactgl.problem import group_norms, penalty_weights
from helpers import (SQRT2, TRAP_OPTIMUM, path_penalty, random_problem,
                     scaled_repro, trap_problem)


def test_objective_at_zero_is_half_squared_response():
    problem, penalty = trap_problem()
    beta = gl.Coefficients.zeros(problem.group_sizes)
    assert gl.objective(problem, penalty, beta) == pytest.approx(1.0, abs=1e-15)


def test_objective_and_certificate_refuse_a_raw_array():
    problem, penalty = trap_problem()
    for call in (gl.objective, gl.certificate):
        with pytest.raises(TypeError, match="Coefficients"):
            call(problem, penalty, np.zeros(problem.n_features))


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_penalties_reject_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        gl.GroupLassoPenalty(bad)
    with pytest.raises(ValueError, match="finite"):
        gl.SparseGroupLassoPenalty(1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        gl.SparseGroupLassoPenalty(bad, 1.0)


def test_sparse_objective_with_vanishing_l1_matches_group_lasso():
    rng = np.random.default_rng(7)
    problem = random_problem(rng)
    beta = gl.Coefficients(rng.standard_normal(problem.n_features),
                           problem.group_sizes)
    plain = gl.objective(problem, gl.GroupLassoPenalty(0.8), beta)
    nearly = gl.objective(problem, gl.SparseGroupLassoPenalty(0.8, 1e-300), beta)
    assert nearly == plain


def test_penalty_weights():
    assert penalty_weights(gl.GroupLassoPenalty(0.7)) == (0.7, 0.0)
    assert penalty_weights(gl.SparseGroupLassoPenalty(0.7, 0.3)) == (0.7, 0.3)
    with pytest.raises(TypeError, match="unknown penalty type"):
        penalty_weights(object())


def test_penalty_readers_reject_unknown_penalty_type():
    problem, _ = trap_problem()
    zero = gl.Coefficients.zeros(problem.group_sizes)
    for read in (lambda: gl.objective(problem, object(), zero),
                 lambda: gl.certificate(problem, object(), zero),
                 lambda: gl.fista_solve(problem, object())):
        with pytest.raises(TypeError, match="unknown penalty type"):
            read()


def test_group_norms_on_ragged_groups():
    rng = np.random.default_rng(5)
    sizes = [1, 3, 2]
    for _ in range(20):
        beta = gl.Coefficients(rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8),
                               sizes)
        expected = [np.linalg.norm(beta.group(k)) for k in range(3)]
        np.testing.assert_allclose(beta.group_norms(), expected, rtol=1e-15, atol=0)


def test_a_one_column_group_norm_drops_the_sign():
    # reduceat returns a one-entry group's entry itself, sign included
    np.testing.assert_array_equal(
        group_norms(np.array([-3.0, 3.0, -4.0]), np.array([0, 1])), [3.0, 5.0])


@pytest.mark.parametrize("scale", [1e-180, 1e-150, 1.0, 1e150, 1e160])
def test_norms_scale_exactly_with_y(scale):
    """Every norm is exact where it is representable: lambda_max, the
    certificate, FISTA's prox and the three solvers scale with y.  The
    objective and the gap are squares, which overflow for |y| above about
    1e154, and so does the dot product that ``vector_norm`` tries before
    ``math.hypot``, so overflow warnings are ignored there."""
    base, problem = scaled_repro(20, 1.0), scaled_repro(20, scale)
    lam = 0.1 * gl.lambda_max(base)
    assert gl.lambda_max(problem) == pytest.approx(
        scale * gl.lambda_max(base), rel=1e-14, abs=0)
    g = base.design.T @ base.y
    np.testing.assert_allclose(_prox_all(problem, scale * lam, 0.0, scale * g, 1.0),
                               scale * _prox_all(base, lam, 0.0, g, 1.0),
                               rtol=1e-14, atol=0)
    squares = {"over": "ignore", "invalid": "ignore"} if scale > 1e154 else {}
    with np.errstate(**squares):
        for l1_ratio in (None, 0.5):
            ((_, ref, _),) = gl.solve_path(base, [lam], l1_ratio=l1_ratio)
            # tol is an absolute change until the stop is made scale-free
            ((_, beta, trace),) = gl.solve_path(
                problem, [scale * lam], gl.SolveOptions(tol=1e-8 * scale),
                l1_ratio=l1_ratio)
            assert trace.converged
            np.testing.assert_allclose(beta.values / scale, ref.values, rtol=1e-6)
            cert = gl.certificate(problem, path_penalty(scale * lam, l1_ratio), beta)
            assert cert.w_norm == pytest.approx(math.hypot(*cert.w),
                                                rel=4 * np.finfo(float).eps, abs=0)
        # the KKT ratio is scale-free, so FISTA's tol does not follow y
        fista, fista_trace = gl.fista_solve(
            problem, gl.GroupLassoPenalty(scale * lam),
            gl.SolveOptions(tol=1e-8 / lam))
        assert fista_trace.converged
    ((_, ref, _),) = gl.solve_path(base, [lam])
    np.testing.assert_allclose(fista.values / scale, ref.values, rtol=1e-6)


# the shapes of the scaling test: 50 x 200 runs the engine in residual
# mode, 60 x 24 in covariance mode (with a Newton step), 30 x 12 is FISTA's
POW2_SHAPES = {"residual": (50, 20, 10), "covariance": (60, 8, 3),
               "fista": (30, 4, 3)}


@functools.lru_cache(maxsize=None)
def _pow2_solves(solver, shape, e):
    """Solve the 2-rung path at 0.2 and 0.1 lambda_max on y * 2^e: one
    (coefficients, counts, kkt_ratio, w_norm, objectives, gap) per rung."""
    n, n_groups, size = POW2_SHAPES[shape]
    base, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=n, n_groups=n_groups, group_size=size, a=0.5, b=0.5, seed=1))
    s = 2.0 ** e
    problem = gl.GroupedProblem(s * base.y, base.design, base.group_sizes)
    lambdas = gl.lambda_max(base) * s * np.array([0.2, 0.1])
    l1_ratio = 0.5 if solver == "sparse" else None
    if solver == "fista":
        # the KKT ratio is scale-free: tol stays as it is
        warm, rungs = None, []
        for lam in lambdas:
            warm, trace = gl.fista_solve(problem, gl.GroupLassoPenalty(lam),
                                         gl.SolveOptions(tol=1e-8, initial=warm))
            rungs.append((lam, warm, trace))
    else:
        # the sweep stop is an absolute change, so tol follows y
        rungs = gl.solve_path(problem, lambdas, gl.SolveOptions(tol=1e-8 * s),
                              l1_ratio=l1_ratio)
    out = []
    for lam, beta, trace in rungs:
        cert = gl.certificate(problem, path_penalty(lam, l1_ratio), beta)
        assert trace.converged
        out.append((beta.values, (trace.sweeps, trace.full_sweeps,
                                  trace.newton_steps, trace.boundary_slack_accepts),
                    cert.kkt_ratio, cert.w_norm, trace.objective_per_sweep,
                    cert.gap))
    return out


@pytest.mark.parametrize("e", [-500, -200, -60, -40, 0, 40, 200, 500])
@pytest.mark.parametrize("solver, shape", [
    ("plain", "residual"), ("plain", "covariance"), ("sparse", "residual"),
    ("sparse", "covariance"), ("fista", "fista")])
def test_power_of_two_scaling_is_bit_exact(solver, shape, e):
    """Scaling y and the penalties by 2^e scales every intermediate by 2^e
    or 4^e exactly, so the solution must follow bit for bit, with the same
    sweep, Newton-step and slack counts and the same KKT ratio; any
    absolute constant in a solver breaks this.  The objectives are squares
    and must scale by 4^e.

    Two squares leave the range where that holds, both at e = -500 only.
    The certificate's w'w is then below 2^-918, where ``vector_norm``
    takes ``math.hypot`` instead of one dot product: the same norm, rounded
    another way, so the KKT ratio agrees there to a few ulps.  The gap is
    about 2^-1000 times a gap of 1e-10 or less, below the smallest normal
    2^-1022, where a subnormal keeps too few bits to scale exactly, so it
    is compared only where 4^e times the gap at 1 is normal.

    No off-support box is met inside its slack on these paths: an absolute
    slack of 1e-10 took in 27 wrong sign patterns on the sparse solver's
    first rung in residual mode at e = -40 and -60, which ended at a KKT
    ratio of 0.013 and was reported as converged."""
    s = 2.0 ** e
    for scaled, ref in zip(_pow2_solves(solver, shape, e),
                           _pow2_solves(solver, shape, 0)):
        b, counts, kkt, w_norm, objectives, gap = scaled
        assert np.array_equal(b, s * ref[0])
        assert counts == ref[1] and counts[3] == 0
        if w_norm ** 2 >= 2.0 ** -918:
            assert kkt == ref[2]
        else:
            assert kkt == pytest.approx(ref[2], rel=4 * np.finfo(float).eps)
        assert np.array_equal(objectives, s * s * ref[4])
        if s * s * ref[5] >= np.finfo(float).tiny:
            assert gap == s * s * ref[5]


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


@pytest.mark.parametrize("sizes", [[3.7, 3.2], [2.5, 4], [np.nan, 3]])
def test_grouped_problem_rejects_fractional_group_sizes(sizes):
    with pytest.raises(ValueError, match="whole numbers") as info:
        gl.GroupedProblem(np.ones(2), np.ones((2, 6)), sizes)
    assert not isinstance(info.value, gl.DimensionMismatchError)
    # whole sizes given as floats are the same partition
    problem = gl.GroupedProblem(np.ones(2), np.ones((2, 6)), [3.0, 3.0])
    assert problem.group_sizes.dtype == np.int64
    np.testing.assert_array_equal(problem.group_sizes, [3, 3])


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_grouped_problem_copies_and_freezes_its_inputs(order):
    rng = np.random.default_rng(15)
    y = rng.standard_normal(6)
    X = np.array(rng.standard_normal((6, 3)), order=order)
    sizes = np.array([2, 1])
    problem = gl.GroupedProblem(y, X, sizes)
    assert problem.design.flags.f_contiguous
    y *= 3.0
    X[0, 0] = 99.0
    sizes[0] = 7
    assert not np.array_equal(problem.y, y)
    assert problem.design[0, 0] != 99.0
    np.testing.assert_array_equal(problem.group_sizes, [2, 1])
    for arr in (problem.y, problem.design, problem.group_sizes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


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


@pytest.mark.parametrize("sizes", [[3.7, 3.2], [2.5, 4], [np.nan, 3]])
def test_coefficients_reject_fractional_group_sizes(sizes):
    for make in (lambda: gl.Coefficients(np.zeros(6), sizes),
                 lambda: gl.Coefficients.zeros(sizes)):
        with pytest.raises(ValueError, match="whole numbers") as info:
            make()
        assert not isinstance(info.value, gl.DimensionMismatchError)


def test_coefficients_validation():
    for sizes in ([], [[3, 3]], [6, 0]):
        with pytest.raises(gl.DimensionMismatchError):
            gl.Coefficients(np.zeros(6), sizes)
    with pytest.raises(gl.DimensionMismatchError):
        gl.Coefficients(np.zeros((2, 3)), [6])


def test_group_index_out_of_range():
    problem = gl.GroupedProblem(np.ones(2), np.ones((2, 3)), [2, 1])
    beta = gl.Coefficients.zeros(problem.group_sizes)
    for k in (problem.n_groups, -1):
        with pytest.raises(IndexError):
            problem.group_slice(k)
        with pytest.raises(IndexError):
            problem.group_matrix(k)
        with pytest.raises(IndexError):
            beta.group(k)


def test_group_matrix_is_a_view_of_the_design():
    rng = np.random.default_rng(3)
    problem = gl.GroupedProblem(rng.standard_normal(6),
                                rng.standard_normal((6, 6)), [1, 3, 2])
    for k in range(problem.n_groups):
        block = problem.group_matrix(k)
        assert np.shares_memory(block, problem.design)
        np.testing.assert_array_equal(block, problem.design[:, problem.group_slice(k)])
        assert block is problem.group_matrix(k)
