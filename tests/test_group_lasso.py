import numpy as np
import pytest

import exactgl as gl
from exactgl import group_lasso, secular, sparse_group_lasso
from exactgl.group_lasso import DEFAULT_MAX_SWEEPS, group_update
from helpers import (SQRT2, TRAP_OPTIMUM, fitted, path_penalty, random_problem,
                     trap_problem)


def _trace_is_monotone(trace):
    return np.all(np.diff(trace.objective_per_sweep) <= 1e-12)


def test_group_update_zero_boundary_inclusive():
    rng = np.random.default_rng(1)
    problem = random_problem(rng, sizes=[3])
    cache = gl.SpectrumCache(problem)
    g = problem.group_matrix(0).T @ problem.y
    lam = float(np.linalg.norm(g))
    np.testing.assert_array_equal(
        group_update(problem, 0, g, lam, cache, [0.0]), np.zeros(3))
    # strictly above the boundary the update is nonzero
    assert np.any(group_update(problem, 0, g, lam * 0.999, cache, [0.0]))


def test_group_update_trap_case():
    problem, _ = trap_problem()
    cache = gl.SpectrumCache(problem)
    g = problem.group_matrix(0).T @ problem.y
    update = group_update(problem, 0, g, 1.0, cache, [0.0])
    np.testing.assert_allclose(update, [TRAP_OPTIMUM] * 2, atol=1e-12)


def test_group_update_orthonormal_columns_closed_form():
    # orthonormal X_k: update is (1 - lam/||X_k'R||) X_k'R, the classic shrink
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, q = 12, 3
        A, _ = np.linalg.qr(rng.standard_normal((n, q)))
        problem = gl.GroupedProblem(rng.standard_normal(n), A, [q])
        cache = gl.SpectrumCache(problem)
        residual = rng.standard_normal(n)
        g = A.T @ residual
        lam = 0.5 * np.linalg.norm(g)  # ||g|| = 2 lam
        closed = (1.0 - lam / np.linalg.norm(g)) * g
        np.testing.assert_allclose(
            group_update(problem, 0, g, lam, cache, [0.0]), closed,
            atol=1e-10)
        np.testing.assert_allclose(closed, 0.5 * g, atol=1e-12)


def test_group_update_zero_iff_gradient_inside_ball():
    rng = np.random.default_rng(3)
    for _ in range(30):
        problem = random_problem(rng)
        cache = gl.SpectrumCache(problem)
        residual = rng.standard_normal(problem.n_samples)
        k = int(rng.integers(problem.n_groups))
        lam = float(rng.uniform(0.2, 2.0))
        g = problem.group_matrix(k).T @ residual
        update = group_update(problem, k, g, lam, cache,
                              [0.0] * problem.n_groups)
        inside = np.linalg.norm(g) <= lam
        assert (not update.any()) == inside


def test_group_update_is_exactly_group_optimal():
    # certify the one-group subproblem at the returned update
    rng = np.random.default_rng(4)
    for _ in range(20):
        problem = random_problem(rng)
        cache = gl.SpectrumCache(problem)
        residual = rng.standard_normal(problem.n_samples)
        k = int(rng.integers(problem.n_groups))
        g = problem.group_matrix(k).T @ residual
        g_norm = np.linalg.norm(g)
        lam = float(rng.uniform(0.1, 1.0)) * max(g_norm, 0.1)
        update = group_update(problem, k, g, lam, cache,
                              [0.0] * problem.n_groups)
        sub = gl.GroupedProblem(residual, problem.group_matrix(k),
                                [int(problem.group_sizes[k])])
        cert = gl.certificate(sub, gl.GroupLassoPenalty(lam),
                              gl.Coefficients(update, sub.group_sizes))
        assert cert.w_norm <= 1e-8 * (1.0 + g_norm)


def test_lambda_max_values():
    problem, _ = trap_problem()
    assert gl.lambda_max(problem) == pytest.approx(SQRT2, abs=1e-15)
    zero_y = gl.GroupedProblem([0.0, 0.0], np.eye(2), [2])
    assert gl.lambda_max(zero_y) == 0.0
    # response orthogonal to every column
    X = np.array([[1.0], [0.0]])
    orth = gl.GroupedProblem([0.0, 3.0], X, [1])
    assert gl.lambda_max(orth) == 0.0


def test_solve_above_lambda_max_returns_zero_in_one_sweep():
    rng = np.random.default_rng(5)
    problem = random_problem(rng)
    lam = gl.lambda_max(problem) * (1 + 1e-6)
    beta, trace = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam))
    assert not beta.values.any()
    assert trace.converged and trace.sweeps == 1
    cert = gl.certificate(problem, gl.GroupLassoPenalty(lam), beta)
    assert cert.w_norm == 0.0


def test_solve_trap_problem():
    problem, penalty = trap_problem()
    beta, trace = gl.solve_group_lasso(problem, penalty)
    np.testing.assert_allclose(beta.values, [TRAP_OPTIMUM] * 2, atol=1e-10)
    assert trace.converged
    assert _trace_is_monotone(trace)


def test_solve_matches_proximal_gradient_reference():
    rng = np.random.default_rng(6)
    for _ in range(5):
        problem = random_problem(rng, sizes=[2, 2, 2], n=20)
        lam = 0.3 * gl.lambda_max(problem)
        penalty = gl.GroupLassoPenalty(lam)
        beta, trace = gl.solve_group_lasso(problem, penalty)
        ref, ref_trace = gl.fista_solve(problem, penalty,
                                        gl.SolveOptions(tol=1e-10 / lam))
        assert ref_trace.converged
        ours = gl.objective(problem, penalty, beta)
        theirs = gl.objective(problem, penalty, ref)
        assert abs(ours - theirs) <= 1e-6 * (1.0 + abs(theirs))


def test_solve_reports_non_convergence_without_raising():
    rng = np.random.default_rng(7)
    problem = random_problem(rng, sizes=[3, 3], n=15)
    lam = 0.05 * gl.lambda_max(problem)
    beta, trace = gl.solve_group_lasso(
        problem, gl.GroupLassoPenalty(lam),
        gl.SolveOptions(tol=1e-14, max_sweeps=2))
    assert not trace.converged
    assert trace.sweeps == 2
    assert _trace_is_monotone(trace)


@pytest.mark.parametrize("field, value", [
    ("tol", np.inf), ("tol", np.nan), ("tol", 0.0), ("max_sweeps", 1.5),
    ("max_sweeps", True), ("max_sweeps", 0), ("max_sweeps", np.float64(3.0))])
def test_solve_options_reject_a_bad_tol_or_sweep_cap(field, value):
    with pytest.raises(ValueError, match=field):
        gl.SolveOptions(**{field: value})


def test_solve_options_accept_a_numpy_integer_cap():
    problem, penalty = trap_problem()
    capped = gl.SolveOptions(max_sweeps=np.int64(1))
    assert gl.solve_group_lasso(problem, penalty, capped)[1].sweeps == 1


def test_fitted_values_unique_across_starting_points():
    rng = np.random.default_rng(8)
    for _ in range(5):
        problem = random_problem(rng)
        lam = 0.4 * gl.lambda_max(problem)
        penalty = gl.GroupLassoPenalty(lam)
        beta_a, _ = gl.solve_group_lasso(problem, penalty)
        start = gl.Coefficients(rng.standard_normal(problem.n_features),
                                problem.group_sizes)
        beta_b, _ = gl.solve_group_lasso(problem, penalty,
                                         gl.SolveOptions(initial=start))
        assert np.max(np.abs(fitted(problem, beta_a)
                             - fitted(problem, beta_b))) <= 1e-5
        for k in range(problem.n_groups):
            ga, gb = beta_a.group(k), beta_b.group(k)
            na, nb = np.linalg.norm(ga), np.linalg.norm(gb)
            if na > 1e-8 and nb > 1e-8:
                np.testing.assert_allclose(ga / na, gb / nb, atol=1e-5)


def test_solve_path_warm_start():
    rng = np.random.default_rng(9)
    problem = random_problem(rng, sizes=[2, 3, 2], n=25)
    top = gl.lambda_max(problem)
    lambdas = top * 0.5 ** np.arange(1, 6)
    results = gl.solve_path(problem, lambdas)
    assert [lam for lam, _, _ in results] == pytest.approx(list(lambdas))
    # the coldest rung solved directly agrees in fitted values
    cold, _ = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lambdas[-1]))
    warm = results[-1][1]
    assert np.max(np.abs(fitted(problem, cold) - fitted(problem, warm))) <= 1e-5


def test_solve_path_single_rung_equals_solve():
    rng = np.random.default_rng(10)
    problem = random_problem(rng)
    lam = 0.5 * gl.lambda_max(problem)
    (lam_out, beta_path, _), = gl.solve_path(problem, [lam])
    beta, _ = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam))
    assert lam_out == lam
    np.testing.assert_allclose(beta_path.values, beta.values, atol=1e-14)


def test_solve_path_rejects_bad_sequences():
    rng = np.random.default_rng(11)
    problem = random_problem(rng)
    for bad in ([], [[1.0], [0.5]]):
        with pytest.raises(ValueError, match="1-D and nonempty"):
            gl.solve_path(problem, bad)
    with pytest.raises(ValueError):
        gl.solve_path(problem, [1.0, 1.0])
    with pytest.raises(ValueError):
        gl.solve_path(problem, [0.5, 1.0])
    with pytest.raises(ValueError):
        gl.solve_path(problem, [1.0, -0.5])


def test_solve_path_sparse_matches_hand_warm_start_bit_for_bit():
    rng = np.random.default_rng(12)
    problem = random_problem(rng, sizes=[3, 4, 2, 3], n=30)
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 5)
    results = gl.solve_path(problem, lambdas, l1_ratio=0.5)
    warm = None
    for (lam_out, beta, trace), lam in zip(results, lambdas):
        expected, expected_trace = gl.solve_sparse_group_lasso(
            problem, gl.SparseGroupLassoPenalty(lam / 2, lam / 2),
            gl.SolveOptions(initial=warm))
        assert lam_out == lam
        assert beta.values.tobytes() == expected.values.tobytes()
        assert trace.sweeps == expected_trace.sweeps
        warm = expected


def test_solve_path_starts_from_the_given_initial_point():
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=30, n_groups=6, group_size=3, a=0.8, b=0.2, seed=1))
    lambdas = gl.penalty_ladder(problem, 3).values
    (_, first, first_trace), *_ = gl.solve_path(problem, lambdas)
    assert first_trace.sweeps >= 5
    kept = first.values.copy()
    (_, again, again_trace), *_ = gl.solve_path(
        problem, lambdas, gl.SolveOptions(initial=first))
    assert again_trace.sweeps == 1 and again_trace.converged
    np.testing.assert_allclose(again.values, first.values, atol=1e-8)
    np.testing.assert_array_equal(first.values, kept)  # the caller's copy


def test_initial_point_with_another_partition_fails_up_front():
    rng = np.random.default_rng(16)
    problem = random_problem(rng, sizes=[2, 2], n=10)
    options = gl.SolveOptions(initial=gl.Coefficients(np.ones(4), [1, 3]))
    with pytest.raises(gl.DimensionMismatchError, match="partition"):
        gl.solve_group_lasso(problem, gl.GroupLassoPenalty(0.1), options)
    with pytest.raises(gl.DimensionMismatchError, match="partition"):
        gl.solve_sparse_group_lasso(
            problem, gl.SparseGroupLassoPenalty(0.1, 0.1), options)


@pytest.mark.parametrize("initial", [np.zeros(4), [0.0] * 4])
def test_a_raw_array_as_initial_point_fails_up_front(initial):
    rng = np.random.default_rng(19)
    problem = random_problem(rng, sizes=[2, 2], n=10)
    options = gl.SolveOptions(initial=initial)
    with pytest.raises(TypeError, match="Coefficients"):
        gl.solve_group_lasso(problem, gl.GroupLassoPenalty(0.1), options)
    with pytest.raises(TypeError, match="Coefficients"):
        gl.solve_sparse_group_lasso(
            problem, gl.SparseGroupLassoPenalty(0.1, 0.1), options)
    for l1_ratio in (None, 0.5):
        with pytest.raises(TypeError, match="Coefficients"):
            gl.solve_path(problem, [0.2, 0.1], options, l1_ratio=l1_ratio)
    with pytest.raises(TypeError, match="Coefficients"):
        gl.fista_solve(problem, gl.GroupLassoPenalty(0.1), options)


def test_a_spectrum_cache_of_another_problem_fails_up_front():
    # doubled columns would give a converged wrong answer, another
    # partition a shape error deep inside the solve
    rng = np.random.default_rng(18)
    problem = random_problem(rng, sizes=[2, 2], n=10)
    penalty = gl.GroupLassoPenalty(0.1 * gl.lambda_max(problem))
    others = (gl.GroupedProblem(problem.y, 2.0 * problem.design, [2, 2]),
              gl.GroupedProblem(problem.y, problem.design, [1, 3]))
    for other in others:
        with pytest.raises(ValueError, match="another problem"):
            gl.solve_group_lasso(problem, penalty,
                                 spectra=gl.SpectrumCache(other))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_point_fails_up_front(bad):
    rng = np.random.default_rng(17)
    problem = random_problem(rng, sizes=[2, 3], n=12)
    top = gl.lambda_max(problem)
    initial = gl.Coefficients(rng.standard_normal(5), [2, 3])
    initial.values[3] = bad
    options = gl.SolveOptions(initial=initial)
    with pytest.raises(ValueError, match="finite"):
        gl.solve_group_lasso(problem, gl.GroupLassoPenalty(0.3 * top), options)
    with pytest.raises(ValueError, match="finite"):
        gl.solve_sparse_group_lasso(
            problem, gl.SparseGroupLassoPenalty(0.2 * top, 0.1 * top), options)
    with pytest.raises(ValueError, match="finite"):
        gl.fista_solve(problem, gl.GroupLassoPenalty(0.3 * top), options)


@pytest.mark.parametrize("l1_ratio", [0.0, 1.0, -0.1])
def test_solve_path_rejects_l1_ratio_outside_open_unit_interval(l1_ratio):
    rng = np.random.default_rng(14)
    problem = random_problem(rng)
    with pytest.raises(ValueError):
        gl.solve_path(problem, [1.0, 0.5], l1_ratio=l1_ratio)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("lambdas", [[1.0, np.nan], [np.nan, 1.0],
                                     [1.0, np.nan, 0.5], [np.inf, 1.0]])
def test_solve_path_rejects_non_finite_penalties_before_any_solve(
        monkeypatch, l1_ratio, lambdas):
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        raise AssertionError("a solve started")

    monkeypatch.setattr(group_lasso, "solve_group_lasso", counting)
    monkeypatch.setattr(sparse_group_lasso, "solve_sparse_group_lasso", counting)
    problem = random_problem(np.random.default_rng(15))
    with pytest.raises(ValueError, match="finite"):
        gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    assert solves == []


def test_lambda_max_threshold_behaviour():
    rng = np.random.default_rng(12)
    for _ in range(10):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        if top == 0.0:
            continue
        above, _ = gl.solve_group_lasso(problem,
                                        gl.GroupLassoPenalty(top * (1 + 1e-6)))
        assert not above.values.any()
        below, _ = gl.solve_group_lasso(problem,
                                        gl.GroupLassoPenalty(top * (1 - 1e-2)))
        assert below.values.any()


def _settling_problem():
    """Eight groups of three whose optimum at 0.05 * lambda_max is nonzero
    on groups 0, 1 and 7 only."""
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=30, n_groups=8, group_size=3, a=0.5, b=0.2, seed=0))
    return problem, 0.05 * gl.lambda_max(problem)


@pytest.mark.parametrize("sparse", [False, True])
def test_warm_start_with_a_wrong_support_finds_the_right_one(sparse):
    problem, lam = _settling_problem()
    if sparse:
        solve, penalty = gl.solve_sparse_group_lasso, gl.SparseGroupLassoPenalty(
            lam / 2, lam / 2)
    else:
        solve, penalty = gl.solve_group_lasso, gl.GroupLassoPenalty(lam)
    cold, cold_trace = solve(problem, penalty)
    support = cold.group_norms() > 0
    assert support.tolist() == [True, True] + [False] * 5 + [True]
    start = cold.copy()
    start.set_group(7, 0.0)   # must be active
    start.set_group(3, 1.0)   # must end at zero
    warm, warm_trace = solve(problem, penalty, gl.SolveOptions(initial=start))
    assert cold_trace.converged and warm_trace.converged
    assert _trace_is_monotone(warm_trace)
    np.testing.assert_array_equal(warm.group_norms() > 0, support)
    bounds = []
    for beta in (cold, warm):
        cert = gl.certificate(problem, penalty, beta)
        lam1 = lam / 2 if sparse else lam
        assert cert.w_norm <= 1e-6 * lam1
        bounds.append(cert.gap)
    gap = np.linalg.norm(fitted(problem, cold) - fitted(problem, warm))
    assert gap <= sum(np.sqrt(bounds))


def test_convergence_needs_a_full_sweep():
    problem, lam = _settling_problem()
    penalty = gl.GroupLassoPenalty(lam)

    def capped(max_sweeps):
        return gl.solve_group_lasso(
            problem, penalty, gl.SolveOptions(max_sweeps=max_sweeps))[1]

    trace = capped(DEFAULT_MAX_SWEEPS)
    assert trace.converged and 1 <= trace.full_sweeps < trace.sweeps
    # the sweep before the last is a support sweep that moved nothing by
    # more than tol; stopping there must not count as converged
    last, before = capped(trace.sweeps - 1), capped(trace.sweeps - 2)
    assert last.full_sweeps == before.full_sweeps == trace.full_sweeps - 1
    assert not last.converged
    for max_sweeps in range(1, trace.sweeps):
        stopped = capped(max_sweeps)
        assert stopped.sweeps == max_sweeps and not stopped.converged
        assert stopped.full_sweeps <= stopped.sweeps


def test_sweeps_skip_groups_off_the_settled_support(monkeypatch):
    problem, lam = _settling_problem()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return group_update(*args, **kwargs)

    monkeypatch.setattr(group_lasso, "group_update", counted)
    beta, trace = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam))
    assert trace.converged
    assert len(calls) < trace.sweeps * problem.n_groups
    assert len(calls) >= trace.full_sweeps * problem.n_groups


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_seeded_roots_change_no_sweep_and_no_coefficient(monkeypatch, l1_ratio):
    # p = 90 >> n = 20, down to lambda_max / 128
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=20, n_groups=30, group_size=3, a=0.5, b=0.3, seed=3))
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 8)
    seeded = gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    seeds = []

    def cold(lsp, r0=0.0):
        seeds.append(r0)
        return secular.solve_secular(lsp)

    monkeypatch.setattr(group_lasso, "solve_secular", cold)
    monkeypatch.setattr(sparse_group_lasso, "solve_secular", cold)
    unseeded = gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    assert sum(r0 > 0.0 for r0 in seeds) > len(seeds) // 2
    for (_, warm, warm_trace), (_, base, base_trace) in zip(seeded, unseeded):
        assert warm_trace.converged and base_trace.converged
        assert warm_trace.sweeps == base_trace.sweeps
        assert warm_trace.full_sweeps == base_trace.full_sweeps
        scale = 1.0 + np.max(np.abs(base.values))
        assert np.max(np.abs(warm.values - base.values)) <= 1e-10 * scale


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_secular_solves_along_a_path_take_few_newton_steps(monkeypatch, l1_ratio):
    # The Newton loop has no fallback; a call that needs many steps would
    # mean the seed or the step has gone wrong.
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=20, n_groups=30, group_size=3, a=0.5, b=0.3, seed=3))
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 8)
    iters = []

    def counted(lsp, r0=0.0):
        result = secular.solve_secular(lsp, r0=r0)
        iters.append(result.newton_iters)
        return result

    monkeypatch.setattr(group_lasso, "solve_secular", counted)
    monkeypatch.setattr(sparse_group_lasso, "solve_secular", counted)
    gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    assert len(iters) > 100
    assert max(iters) <= 20


def _tall_problem(rng, n, sizes, noise):
    """Design and response with the second half of the groups inactive."""
    X = rng.standard_normal((n, int(sum(sizes))))
    truth = rng.standard_normal(X.shape[1])
    truth[int(sum(sizes[:len(sizes) // 2])):] = 0.0
    return X, X @ truth + noise * rng.standard_normal(n)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_path_on_a_tall_problem_allocates_a_small_fraction_of_the_design(l1_ratio):
    # n >> p: the sweep state is p-vectors and Gram columns of at most p x p;
    # a gather of many design columns or a copy of the design would not fit
    import tracemalloc
    X, y = _tall_problem(np.random.default_rng(61), 20_000, [5] * 8, 0.5)
    problem = gl.GroupedProblem(y, X, [5] * 8)
    del X, y
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 11)
    tracemalloc.start()
    try:
        path = gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(trace.converged for _, _, trace in path)
    assert peak < 0.25 * problem.design.nbytes


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("n_samples, n_groups", [(20, 30), (30, 10)])
def test_residual_mode_never_forms_the_design_gram(monkeypatch, n_samples,
                                                   n_groups, l1_ratio):
    # p >= n: X'X is p x p, larger than the design (3.2 GB at p = 20,000)
    def refuse(self):
        raise AssertionError("X'X formed with p >= n")

    monkeypatch.setattr(gl.SpectrumCache, "gram", refuse)
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=n_samples, n_groups=n_groups, group_size=3, a=0.5, b=0.3, seed=3))
    assert problem.n_features >= problem.n_samples
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 8)
    path = gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    assert all(trace.converged for _, _, trace in path)
    assert np.count_nonzero(path[-1][1].group_norms()) > 1


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_covariance_mode_moves_through_views_of_one_design_gram(monkeypatch,
                                                               l1_ratio):
    built, views = [], []
    real_gram, real_columns = gl.SpectrumCache.gram, gl.SpectrumCache.gram_columns

    def gram(self):
        out = real_gram(self)
        if not any(cache is self and g is out for cache, g in built):
            built.append((self, out))
        return out

    def gram_columns(self, k):
        out = real_columns(self, k)
        views.append((self, k, out))
        return out

    monkeypatch.setattr(gl.SpectrumCache, "gram", gram)
    monkeypatch.setattr(gl.SpectrumCache, "gram_columns", gram_columns)
    sizes = [5] * 8
    X, y = _tall_problem(np.random.default_rng(63), 200, sizes, 0.5)
    problem = gl.GroupedProblem(y, X, sizes)
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 7)
    for _ in range(2):  # every path builds its own cache
        gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    caches = [cache for cache, _ in built]
    assert len(built) == 2 and caches[0] is not caches[1]
    assert len({k for _, k, _ in views}) > 1
    design = problem.design
    unit = np.finfo(np.float64).eps / 2
    for cache, k, cols in views:
        (gram,) = [g for c, g in built if c is cache]
        assert cols.base is gram
        # the Gram product's rounding bound, n u |X|'|X_k| (Higham 2002, 3.5)
        block = problem.group_matrix(k)
        bound = design.shape[0] * unit * (np.abs(design).T @ np.abs(block))
        assert np.all(np.abs(cols - design.T @ block) <= bound)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_covariance_mode_reads_every_group_gram_from_the_design_gram(l1_ratio):
    # the gradient, the box check, the spectra and the move read one X'X
    sizes = [5] * 8
    X, y = _tall_problem(np.random.default_rng(66), 200, sizes, 0.5)
    problem = gl.GroupedProblem(y, X, sizes)
    cache = gl.SpectrumCache(problem)
    assert cache.covariance
    lam = gl.lambda_max(problem) * 0.1
    solve = gl.solve_group_lasso if l1_ratio is None else gl.solve_sparse_group_lasso
    beta, trace = solve(problem, path_penalty(lam, l1_ratio), spectra=cache)
    assert trace.converged and np.count_nonzero(beta.group_norms()) > 1
    gram = cache.gram()
    for k in range(problem.n_groups):
        block = cache.group_gram(k)
        cols = problem.group_slice(k)
        assert block.base is gram and cache.group_gram(k) is block
        np.testing.assert_array_equal(block, gram[cols, cols])
    assert not gl.SpectrumCache(_zero_groups_problem("wide")).covariance


def test_cholesky_refuses_a_hessian_singular_to_rounding():
    rng = np.random.default_rng(64)
    X = rng.standard_normal((30, 4))
    np.testing.assert_array_equal(group_lasso._cholesky(X.T @ X),
                                  np.linalg.cholesky(X.T @ X))
    X[:, 3] = X[:, 2]  # exactly singular; rounding may still let it factor
    assert group_lasso._cholesky(X.T @ X) is None
    # a factorization that runs through, with l_22^2 = 2^-52 below
    # gamma_3 H_22 = 3u / (1 - 3u): a pivot that is zero to rounding
    near = np.array([[1.0, 1 - 2.0**-53], [1 - 2.0**-53, 1.0]])
    assert np.linalg.cholesky(near)[1, 1] > 0
    assert group_lasso._cholesky(near) is None
    near[0, 1] = near[1, 0] = 1 - 2.0**-40  # l_22^2 about 2^-39: resolvable
    assert group_lasso._cholesky(near) is not None


def _both_modes(l1_ratio):
    """One path solved in covariance mode and, padded past p > n with
    zero-column groups, in residual mode."""
    sizes = [5] * 8
    X, y = _tall_problem(np.random.default_rng(62), 60, sizes, 0.3)
    tall = gl.GroupedProblem(y, X, sizes)
    wide = gl.GroupedProblem(y, np.hstack([X, np.zeros((60, 25))]), sizes + [5] * 5)
    assert tall.n_samples > tall.n_features and wide.n_samples < wide.n_features
    lambdas = gl.lambda_max(tall) * np.array([0.5, 0.3, 0.2, 0.1])
    cov = gl.solve_path(tall, lambdas, l1_ratio=l1_ratio)
    res = gl.solve_path(wide, lambdas, l1_ratio=l1_ratio)
    for (_, b_cov, t_cov), (_, b_res, t_res) in zip(cov, res):
        assert 0 < np.count_nonzero(b_cov.group_norms()) < tall.n_groups
        assert t_cov.converged and t_res.converged
        assert not b_res.values[40:].any()
    return tall, wide, lambdas, cov, res


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_covariance_and_residual_modes_agree(monkeypatch, l1_ratio):
    # without Newton bursts the two modes run the same sweeps
    monkeypatch.setattr(group_lasso, "NEWTON_STEPS", 0)
    _, _, _, cov, res = _both_modes(l1_ratio)
    for (_, b_cov, t_cov), (_, b_res, t_res) in zip(cov, res):
        assert t_cov.sweeps == t_res.sweeps and t_cov.sweeps > t_cov.full_sweeps
        assert t_cov.newton_steps == 0
        scale = 1.0 + np.abs(b_res.values).max()
        np.testing.assert_allclose(b_cov.values, b_res.values[:40], rtol=0,
                                   atol=1e-12 * scale)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_covariance_newton_agrees_with_residual_mode_by_the_gap(l1_ratio):
    tall, wide, lambdas, cov, res = _both_modes(l1_ratio)
    assert sum(t_cov.newton_steps for _, _, t_cov in cov) > 0
    for lam, (_, b_cov, t_cov), (_, b_res, t_res) in zip(lambdas, cov, res):
        penalty = path_penalty(lam, l1_ratio)
        gap_cov = gl.certificate(tall, penalty, b_cov).gap
        gap_res = gl.certificate(wide, penalty, b_res).gap
        assert t_cov.sweeps <= t_res.sweeps and t_res.newton_steps == 0
        assert (np.linalg.norm(fitted(tall, b_cov) - fitted(wide, b_res))
                <= np.sqrt(gap_cov) + np.sqrt(gap_res))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("l1_ratio", [None, 0.5])
def test_tall_deep_ladder_objective_never_rises(scale, l1_ratio):
    # at lambda_max * 2^-15 a near-exact fit puts the objective about 2^-15
    # below 0.5*||y||^2, where an objective formed as
    # 0.5*||y||^2 - 0.5*b'(X'y + X'r) cancels to a few times the bound here
    sizes = [10] * 20
    X, y = _tall_problem(np.random.default_rng(64), 400, sizes, 1e-3)
    problem = gl.GroupedProblem(scale * y, X, sizes)
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(16)
    path = gl.solve_path(problem, lambdas, gl.SolveOptions(tol=1e-8 * scale),
                         l1_ratio=l1_ratio)
    for _, _, trace in path:
        obj = trace.objective_per_sweep
        assert np.all(np.diff(obj) <= 1e-12 * np.maximum(1.0, np.abs(obj[:-1])))
    assert sum(trace.sweeps - trace.full_sweeps for _, _, trace in path) > 0


def _zero_groups_problem(shape):
    """A p >> n problem, or an n > p one whose second half of groups is
    inactive; both leave many zero groups along a path."""
    if shape == "wide":
        problem, _ = gl.sample_problem(gl.SimulationConfig(
            n_samples=20, n_groups=30, group_size=3, a=0.5, b=0.3, seed=3))
        return problem
    X, y = _tall_problem(np.random.default_rng(65), 60, [5] * 8, 0.3)
    return gl.GroupedProblem(y, X, [5] * 8)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_full_sweeps_visit_every_group(monkeypatch, shape, l1_ratio):
    # every group of a full sweep reaches its update, zero groups included:
    # group_update (plain) or zero_check (sparse) once per group
    problem = _zero_groups_problem(shape)
    lam = gl.lambda_max(problem) * 0.25
    if l1_ratio is None:
        owner, name, solve = group_lasso, "group_update", gl.solve_group_lasso
    else:
        owner, name, solve = (sparse_group_lasso, "zero_check",
                              gl.solve_sparse_group_lasso)
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    per_sweep = []

    def on_sweep(sweep, beta):
        per_sweep.append(calls[0])
        calls[0] = 0

    monkeypatch.setattr(owner, name, counted)
    beta, trace = solve(problem, path_penalty(lam, l1_ratio), on_sweep=on_sweep)
    assert trace.converged and len(per_sweep) == trace.sweeps
    assert 0 < np.count_nonzero(beta.group_norms()) < problem.n_groups
    assert per_sweep[0] == per_sweep[-1] == problem.n_groups


def test_a_group_turning_nonzero_rechecks_the_rest_of_its_run():
    # Both groups start zero.  At b = 0 the second gradient is 0, but once
    # the first group moves it is -1.5/sqrt(2), past lam = 0.5: the second
    # group's visit must read the gradient after that move.
    problem = gl.GroupedProblem([2.0, -2.0], [[1.0, SQRT2 / 2], [0.0, SQRT2 / 2]],
                                [1, 1])
    first = []

    def on_sweep(sweep, beta):
        if sweep == 1:
            first.append(beta.values.copy())

    beta, trace = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(0.5),
                                       on_sweep=on_sweep)
    assert trace.converged and np.all(first[0] != 0.0)


@pytest.mark.parametrize("l1_ratio", [None, 0.5])
@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_each_move_is_applied_exactly_once(monkeypatch, shape, l1_ratio):
    # Before each rebuild, the state carried by moves equals the rebuilt
    # one to rounding; a lost or doubled step would be off by X_k step.
    problem = _zero_groups_problem(shape)
    X, y = problem.design, problem.y
    scale = 64 * problem.n_samples * np.finfo(float).eps
    checked = []

    def checking(refresh, carried):
        def wrapped(mode):
            if not hasattr(mode, carried):  # the first build of a solve
                return refresh(mode)
            before = getattr(mode, carried).copy()
            objective = refresh(mode)
            bound = scale * (np.linalg.norm(y) + np.linalg.norm(X)
                             * np.linalg.norm(mode.beta.values))
            checked.append(np.linalg.norm(before - getattr(mode, carried)) / bound)
            return objective
        return wrapped

    for cls, carried in ((group_lasso._ResidualMode, "residual"),
                         (group_lasso._CovarianceMode, "grad")):
        monkeypatch.setattr(cls, "refresh", checking(cls.refresh, carried))
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 6)
    gl.solve_path(problem, lambdas, l1_ratio=l1_ratio)
    assert len(checked) >= len(lambdas) and max(checked) <= 1.0
