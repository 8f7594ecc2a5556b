"""The zero protocol: every update returns one shared, read-only zero vector
per group size for a zero result, and the sweep engine tests for it by
identity instead of scanning the result."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import exactgl as gl
from exactgl import group_lasso, sparse_group_lasso
from exactgl.group_lasso import TINY_ROOT, ZEROS, group_update
from exactgl.problem import penalty_term, vector_norm
from helpers import path_penalty, random_problem, scaled_repro

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import paper_compare  # noqa: E402

# (module whose _sweep_engine the solve looks up, the coefficients of a path)
SOLVERS = {
    "plain": (group_lasso, lambda problem, lambdas: [
        beta for _, beta, _ in gl.solve_path(problem, lambdas)]),
    "sparse": (sparse_group_lasso, lambda problem, lambdas: [
        beta for _, beta, _ in gl.solve_path(problem, lambdas, l1_ratio=0.5)]),
    "inexact": (paper_compare, lambda problem, lambdas: [
        beta for beta, _, _ in paper_compare._inexact_path(problem, lambdas, 1e-8)]),
}


def _problem(shape):
    """Many zero groups along a path: p >> n, or n > p with half the
    groups inactive."""
    if shape == "wide":
        problem, _ = gl.sample_problem(gl.SimulationConfig(
            n_samples=20, n_groups=30, group_size=3, a=0.5, b=0.3, seed=3))
        return problem
    rng = np.random.default_rng(65)
    X = rng.standard_normal((60, 40))
    truth = np.concatenate([rng.standard_normal(20), np.zeros(20)])
    return gl.GroupedProblem(X @ truth + 0.3 * rng.standard_normal(60), X, [5] * 8)


def _record_updates(monkeypatch, owner):
    """Wrap every update_one that ``owner``'s solves hand the engine."""
    seen = []
    engine = owner._sweep_engine

    def recording(problem, penalty, update_one, *rest):
        def update(k, g):
            new = update_one(k, g)
            seen.append((g.shape[0], new))
            return new
        return engine(problem, penalty, update, *rest)

    monkeypatch.setattr(owner, "_sweep_engine", recording)
    return seen


def _tiny_case(scale, ulps):
    """One 10-column group with X_k = scale * I and ||g|| a few ulps above
    lam = 1e-150, so the secular root is 0 or subnormal."""
    m = 10
    X = np.vstack([scale * np.eye(m), np.zeros((2, m))])
    problem = gl.GroupedProblem(np.zeros(m + 2), X, [m])
    g = np.full(m, 1e-150 / np.sqrt(m))
    for _ in range(ulps):
        g[0] = np.nextafter(g[0], 1.0)
    return problem, g, 1e-150


def test_the_shared_zero_is_one_read_only_vector_per_size():
    for size in (1, 3, 10):
        zero = ZEROS[size]
        assert ZEROS[size] is zero and zero.shape == (size,)
        assert not zero.flags.writeable and not zero.any()
        with pytest.raises(ValueError):
            zero[0] = 1.0
    assert ZEROS[3] is not ZEROS[4]


# the inexact step refuses n > p
@pytest.mark.parametrize("solver, shape", [
    ("plain", "wide"), ("plain", "tall"), ("sparse", "wide"), ("sparse", "tall"),
    ("inexact", "wide")])
def test_every_zero_result_is_the_shared_zero(monkeypatch, solver, shape):
    owner, solve = SOLVERS[solver]
    seen = _record_updates(monkeypatch, owner)
    problem = _problem(shape)
    betas = solve(problem, gl.lambda_max(problem) * 0.5 ** np.arange(1, 6))
    zeros = [new for size, new in seen if new is ZEROS[size]]
    others = [new for size, new in seen if new is not ZEROS[size]]
    assert zeros and others
    # a new array is a nonzero result, and never the shared object's memory
    assert all(new.any() for new in others)
    assert not any(np.shares_memory(new, ZEROS[new.shape[0]]) for new in others)
    for beta in betas:
        assert not any(np.shares_memory(beta.values, zero) for zero in ZEROS.values())


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_solves_leave_the_shared_zero_zero(shape, l1_ratio):
    problem = _problem(shape)
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 6)
    for _, beta, trace in gl.solve_path(problem, lambdas, l1_ratio=l1_ratio):
        assert trace.converged and 0 < np.count_nonzero(beta.group_norms())
        beta.values[:] = 7.0  # a caller writing to its coefficients
        assert not any(zero.any() for zero in ZEROS.values())
    for zero in ZEROS.values():
        assert not zero.flags.writeable and not zero.any()


def test_group_update_returns_the_shared_zero_from_its_norm_test():
    rng = np.random.default_rng(1)
    problem = random_problem(rng, sizes=[3])
    g = problem.group_matrix(0).T @ problem.y
    lam = float(np.sqrt(np.dot(g, g)))
    assert group_update(problem, 0, g, lam, gl.SpectrumCache(problem), [0.0]) is ZEROS[3]


def test_group_update_returns_the_shared_zero_for_a_zero_root():
    # ||g|| passes the norm test, but the lower bound (||v|| - lam) / max(d)
    # underflows and the root is 0
    problem, g, lam = _tiny_case(1e80, 8)
    assert np.sqrt(np.dot(g, g)) > lam
    roots = [0.0]
    assert group_update(problem, 0, g, lam, gl.SpectrumCache(problem), roots) is ZEROS[10]
    assert roots[0] == 0.0


def test_a_nonzero_root_that_rounds_to_an_all_zero_group_counts_as_zero():
    # the root is the smallest subnormal, 5e-324: the rotated optimum r q
    # rounds to zero in every entry, so the result is zero without being
    # the zero root
    problem, g, lam = _tiny_case(1e79, 16)
    roots = [0.0]
    new = group_update(problem, 0, g, lam, gl.SpectrumCache(problem), roots)
    assert 0.0 < roots[0] < TINY_ROOT
    assert new is ZEROS[10]


def test_roots_down_to_the_tiny_bound_give_a_nonzero_group():
    # the root falls a hundredfold per step, the last one to 1.4e-300, just
    # above TINY_ROOT = 2^-1000 (9.3e-302)
    for exponent in range(60, 68):
        problem, g, lam = _tiny_case(10.0 ** exponent, 8)
        roots = [0.0]
        new = group_update(problem, 0, g, lam, gl.SpectrumCache(problem), roots)
        assert TINY_ROOT <= roots[0] < 1e-280
        assert new is not ZEROS[10] and np.count_nonzero(new) == 10


def test_the_sparse_zero_check_and_the_anchor_zero_root_return_the_shared_zero():
    problem, g, lam1 = _tiny_case(1e80, 8)
    cache, lam2 = gl.SpectrumCache(problem), 1e-200  # soft(g, lam2) is g
    assert not sparse_group_lasso.zero_check(g, lam1, lam2)
    result = sparse_group_lasso.signed_subproblem(
        problem, 0, g, (1,) * 10, lam1, lam2, cache, {})
    assert result.status is sparse_group_lasso.SubproblemStatus.FEASIBLE
    assert result.alpha is ZEROS[10]


def test_the_inexact_step_returns_the_shared_zero_above_lambda_max(monkeypatch):
    problem = _problem("wide")
    seen = _record_updates(monkeypatch, paper_compare)
    beta, trace = paper_compare.inexact_solve(
        problem, gl.GroupLassoPenalty(1.01 * gl.lambda_max(problem)),
        gl.SolveOptions(), gl.SpectrumCache(problem))
    assert trace.converged and not beta.values.any()
    assert len(seen) == problem.n_groups
    assert all(new is ZEROS[3] for _, new in seen)


def test_penalty_term_drops_only_a_zero_l1_term():
    rng = np.random.default_rng(5)
    for _ in range(200):
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 8)))
        values = rng.standard_normal(int(sizes.sum())) * 10.0 ** rng.integers(-8, 9)
        values[rng.random(values.size) < 0.3] = 0.0
        beta = gl.Coefficients(values, sizes)
        lam = float(rng.uniform(1e-3, 1e3))
        old = lam * beta.group_norms().sum() + 0.0 * np.abs(beta.values).sum()
        new = penalty_term(gl.GroupLassoPenalty(lam), beta)
        assert np.float64(new).tobytes() == np.float64(old).tobytes()
        sparse = path_penalty(lam, 0.5)
        assert penalty_term(sparse, beta) == (
            sparse.lam1 * beta.group_norms().sum()
            + sparse.lam2 * np.abs(beta.values).sum())


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_a_gradient_whose_squares_underflow_is_not_judged_zero(l1_ratio):
    problem = scaled_repro(20, 1e-180)
    g = problem.group_matrix(0).T @ problem.y
    assert np.dot(g, g) == 0.0  # every square underflowed
    ((_, beta, trace),) = gl.solve_path(problem, [1e-300], l1_ratio=l1_ratio)
    fit = np.linalg.lstsq(problem.design, problem.y, rcond=None)[0]
    assert trace.converged
    np.testing.assert_allclose(beta.values[:3], fit[:3], rtol=1e-6)


def test_the_inexact_step_does_not_judge_an_underflowed_gradient_zero():
    problem = scaled_repro(4, 1e-180)
    beta, _ = paper_compare.inexact_solve(
        problem, gl.GroupLassoPenalty(1e-300), gl.SolveOptions(),
        gl.SpectrumCache(problem))
    assert beta.group(0).all()


def test_the_zero_tests_take_norms_that_cannot_underflow():
    g = np.array([1e-200, -2e-200, 5e-201])
    assert not sparse_group_lasso.zero_check(g, 1e-300, 1e-301)
    problem = random_problem(np.random.default_rng(2), sizes=[3])
    new = group_update(problem, 0, g, 1e-300, gl.SpectrumCache(problem), [0.0])
    assert new is not ZEROS[3]
    # one ulp above a subnormal penalty
    lam = 1e-310
    assert not sparse_group_lasso.zero_check(
        np.array([np.nextafter(lam, 1.0)]), lam, 0.0)
    assert sparse_group_lasso.zero_check(np.array([lam]), lam, 0.0)
    # above the fallback's floor the norm is the dot product's, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = (rng.standard_normal(int(rng.integers(1, 13)))
             * 10.0 ** rng.integers(-130, 150))
        assert vector_norm(g) == math.sqrt(np.dot(g, g))
