import itertools

import numpy as np
import pytest

import exactgl as gl
from exactgl.problem import soft_threshold
from exactgl.secular import ROOT_TOL, solve_secular
from exactgl.sparse_group_lasso import (BOUNDARY_SLACK, SIGN_ZERO_REL,
                                        SubproblemStatus, sign_order,
                                        signed_subproblem, zero_check)
from helpers import fitted, random_problem


def _univariate_problem(value=2.0):
    # one covariate, X = (1, 0)', response (value, 0)
    return gl.GroupedProblem([value, 0.0], np.array([[1.0], [0.0]]), [1])


def _gradient(problem, k=0):
    # the group gradient X_k' R_k at beta = 0, where R_k = y
    return problem.group_matrix(k).T @ problem.y


def test_soft_threshold_values():
    assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
    assert soft_threshold(-0.5, 1.0) == 0.0
    x = np.array([-2.0, 0.3, 1.5])
    np.testing.assert_array_equal(soft_threshold(x, 0.0), x)
    np.testing.assert_allclose(soft_threshold(x, 1.0), [-1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        soft_threshold(x, -0.1)


def test_zero_check_values():
    assert zero_check(np.array([0.4, -0.2]), 0.01, 0.5)  # all under lam2
    assert not zero_check(np.array([2.0]), 0.5, 0.5)     # ||1.5|| > 0.5
    assert zero_check(np.array([2.0]), 1.5, 0.5)         # boundary inclusive


def test_signed_subproblem_univariate_feasible():
    problem = _univariate_problem(2.0)
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (1,),
                               0.5, 0.5, cache)
    assert result.status is SubproblemStatus.FEASIBLE
    # univariate sparse group lasso is a lasso with weight lam1 + lam2
    assert np.linalg.norm(result.alpha) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(result.alpha, [1.0], atol=1e-10)


def test_signed_subproblem_univariate_wrong_sign():
    # v = 2 + 0.5 = 2.5, root of (2.5/(r+0.5))^2 = 1 is r = 2, alpha = +2
    problem = _univariate_problem(2.0)
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (-1,),
                               0.5, 0.5, cache)
    assert result.status is SubproblemStatus.INFEASIBLE_SIGN
    assert np.linalg.norm(result.alpha) == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(result.alpha, [2.0], atol=1e-10)


def test_signed_subproblem_no_root():
    # gradient exactly lam2: the shifted target vanishes, f is identically 0
    problem = _univariate_problem(0.5)
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (1,),
                               0.5, 0.5, cache)
    assert result.status is SubproblemStatus.NO_ROOT


def test_signed_subproblem_requires_support():
    problem = _univariate_problem()
    cache = gl.SpectrumCache(problem)
    with pytest.raises(ValueError):
        signed_subproblem(problem, 0, _gradient(problem), (0,),
                          0.5, 0.5, cache)


def test_signed_subproblem_boundary_rejection():
    # two coordinates, identity design: leaving j=2 out is infeasible when
    # its residual correlation exceeds lam2
    y = np.array([2.0, 0.9])
    problem = gl.GroupedProblem(y, np.eye(2), [2])
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (1, 0),
                               0.5, 0.5, cache)
    assert result.status is SubproblemStatus.INFEASIBLE_BOUNDARY
    both = signed_subproblem(problem, 0, _gradient(problem), (1, 1),
                             0.5, 0.5, cache)
    assert both.status is SubproblemStatus.FEASIBLE


def test_sign_order_dedup_and_counts():
    g = np.array([2.0, -1.0])
    anchor = (1, -1)
    out = list(sign_order(g, 0.5, previous=anchor))
    assert out[0] == anchor
    assert len(out) == 8
    assert len(set(out)) == 8

    single = list(sign_order(np.array([0.1]), 0.5))
    assert set(single) == {(1,), (-1,)}
    assert len(single) == 2


def test_sign_order_previous_first_then_anchor_then_rings():
    g = np.array([2.0, -1.0])
    previous = (0, 1)
    out = list(sign_order(g, 0.5, previous=previous))
    assert out[0] == previous
    assert out[1] == (1, -1)
    anchor = out[1]
    dist = [sum(a != b for a, b in zip(sv, anchor)) for sv in out[1:]]
    assert dist == sorted(dist)
    # lexicographic tie-break within the first ring: +1 before 0 before -1
    ring1 = [sv for sv in out[2:] if sum(
        a != b for a, b in zip(sv, anchor)) == 1]
    assert ring1 == [(1, 1), (1, 0), (0, -1), (-1, -1)]


def test_sign_order_matches_a_brute_force_reference():
    rank = {1: 0, 0: 1, -1: 2}
    rng = np.random.default_rng(47)
    for p in range(1, 7):
        for _ in range(4):
            g = rng.normal(size=p) * rng.choice([0.3, 1.0, 3.0])
            # below max|g|, so the anchor is nonzero, as after a failed
            # zero check
            lam2 = float(rng.uniform(0.0, 0.9)) * float(np.abs(g).max())
            anchor = tuple(int(v) for v in np.sign(soft_threshold(g, lam2)))
            nonzero = [s for s in itertools.product((1, 0, -1), repeat=p)
                       if any(s)]
            for previous in (None, nonzero[rng.integers(len(nonzero))],
                             anchor):
                rest = sorted(
                    (s for s in nonzero if s != previous),
                    key=lambda s: (sum(a != b for a, b in zip(s, anchor)),
                                   tuple(rank[v] for v in s)))
                expected = rest if previous is None else [previous] + rest
                out = list(sign_order(g, lam2, previous=previous))
                assert out == expected
                assert len(out) == 3 ** p - 1
                assert all(any(s) for s in out)


def test_solve_zero_when_lam2_dominates():
    rng = np.random.default_rng(31)
    problem = random_problem(rng)
    lam2 = float(np.abs(problem.design.T @ problem.y).max()) + 1.0
    beta, trace = gl.solve_sparse_group_lasso(
        problem, gl.SparseGroupLassoPenalty(0.01, lam2))
    assert not beta.values.any()
    assert trace.converged and trace.sweeps == 1


def test_solve_univariate_against_closed_form():
    problem = _univariate_problem(2.0)
    beta, _ = gl.solve_sparse_group_lasso(
        problem, gl.SparseGroupLassoPenalty(0.5, 0.5))
    np.testing.assert_allclose(beta.values, [1.0], atol=1e-10)


def test_solve_identity_two_wide_group_matches_reference():
    problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
    penalty = gl.SparseGroupLassoPenalty(0.1, 0.1)
    beta, trace = gl.solve_sparse_group_lasso(problem, penalty)
    ref, _ = gl.fista_solve(problem, penalty, gl.OracleOptions(tol=1e-10))
    ours = gl.objective(problem, penalty, beta)
    theirs = gl.objective(problem, penalty, ref)
    assert abs(ours - theirs) <= 1e-6 * (1 + abs(theirs))
    assert np.all(np.diff(trace.objective_per_sweep) <= 1e-12)


def test_accepted_signs_match_reference_solution():
    rng = np.random.default_rng(32)
    for _ in range(10):
        problem = random_problem(rng, sizes=[2, 2, 2], n=15)
        top = gl.lambda_max(problem)
        penalty = gl.SparseGroupLassoPenalty(0.2 * top, 0.05 * top)
        beta, _ = gl.solve_sparse_group_lasso(problem, penalty)
        ref, _ = gl.fista_solve(problem, penalty, gl.OracleOptions(tol=1e-10))
        scale = np.linalg.norm(ref.values)
        ref_signs = np.sign(ref.values) * (np.abs(ref.values) > 1e-9 * scale)
        np.testing.assert_array_equal(np.sign(beta.values), ref_signs)


def test_at_most_one_feasible_sign_on_tiny_groups():
    rng = np.random.default_rng(33)
    for _ in range(30):
        problem = random_problem(rng, sizes=[2], n=8)
        cache = gl.SpectrumCache(problem)
        g = problem.group_matrix(0).T @ problem.y
        lam1 = float(rng.uniform(0.1, 0.8)) * np.linalg.norm(g)
        lam2 = float(rng.uniform(0.05, 0.5)) * np.abs(g).max()
        if zero_check(g, lam1, lam2):
            continue
        feasible = []
        for signs in itertools.product((-1, 0, 1), repeat=2):
            if not any(signs):
                continue
            res = signed_subproblem(problem, 0, g, signs, lam1, lam2, cache)
            if res.status is SubproblemStatus.FEASIBLE:
                feasible.append(signs)
        assert len(feasible) == 1


def test_vanishing_lam2_recovers_group_lasso():
    rng = np.random.default_rng(34)
    for _ in range(5):
        problem = random_problem(rng)
        lam1 = 0.3 * gl.lambda_max(problem)
        sparse, _ = gl.solve_sparse_group_lasso(
            problem, gl.SparseGroupLassoPenalty(lam1, 1e-10))
        plain, _ = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam1))
        assert np.max(np.abs(fitted(problem, sparse)
                             - fitted(problem, plain))) <= 1e-4


def test_group_size_guard():
    rng = np.random.default_rng(35)
    problem = random_problem(rng, sizes=[13], n=20)
    with pytest.raises(gl.GroupSizeGuardError):
        gl.solve_sparse_group_lasso(problem,
                                    gl.SparseGroupLassoPenalty(0.5, 0.5))


def test_subset_cache_entries_bounded_by_supports():
    # a group of size 3 can only ever contribute 2^3 - 1 = 7 subset entries
    rng = np.random.default_rng(36)
    problem = random_problem(rng, sizes=[3], n=12)
    cache = gl.SpectrumCache(problem)
    top = gl.lambda_max(problem)
    gl.solve_sparse_group_lasso(
        problem, gl.SparseGroupLassoPenalty(0.05 * top, 0.02 * top),
        spectra=cache)
    entries = [key for key in cache._store if key[0] == 0 and key[1] != "full"]
    assert 1 <= len(entries) <= 7


def test_singular_support_gram_floor_detection():
    # one sample, two-wide group: the support Gram [[1,1],[1,1]] is singular.
    # A misaligned sign shift puts real mass on the null eigendirection, so
    # f(r) never descends to 1; that candidate must report NO_ROOT instead
    # of stalling the root finder.
    problem = gl.GroupedProblem([3.0], np.array([[1.0, 1.0]]), [2])
    cache = gl.SpectrumCache(problem)
    misaligned = signed_subproblem(problem, 0, _gradient(problem), (1, -1),
                                   0.1, 0.5, cache)
    assert misaligned.status is SubproblemStatus.NO_ROOT
    aligned = signed_subproblem(problem, 0, _gradient(problem), (1, 1),
                                0.1, 0.5, cache)
    assert aligned.status is SubproblemStatus.FEASIBLE

    penalty = gl.SparseGroupLassoPenalty(0.1, 0.5)
    beta, trace = gl.solve_sparse_group_lasso(problem, penalty)
    assert trace.converged
    ours = gl.objective(problem, penalty, beta)
    gridded = gl.grid_refine(problem, penalty, (-2.0, 4.0), 0.02)
    assert abs(ours - gl.objective(problem, penalty, gridded)) <= 1e-4


def _rank_deficient_problems(rng):
    # more columns than rows: every support wider than n has a singular Gram
    for _ in range(10):
        n = int(rng.integers(2, 5))
        yield random_problem(rng, sizes=[3, 3], n=n)
    # enough rows, but one group holds a column, its duplicate and a
    # scaled duplicate: a Gram of rank 1 with two null directions
    X = rng.standard_normal((8, 2))
    c = rng.standard_normal((8, 1))
    design = np.hstack([X, c, c, -2.5 * c])
    truth = np.array([1.0, -1.0, 0.5, 0.5, 0.2])
    y = design @ truth + 0.1 * rng.standard_normal(8)
    yield gl.GroupedProblem(y, design, [2, 3])


def _column_form(problem, k, residual, signs, lam1, lam2, spectra):
    # the signed subproblem written on the columns: target X_J' R - lam2 s_J,
    # off-support box X_rest' (R - X_J alpha_J)
    s = np.array(signs, dtype=np.float64)
    J = np.flatnonzero(s)
    rest = np.flatnonzero(s == 0)
    XJ = problem.group_matrix(k)[:, J]
    spectrum = spectra.gram_spectrum(k, subset=J)
    lsp = spectrum.line_search(XJ.T @ residual - lam2 * s[J], lam1)
    if lsp.floor >= 1.0 - ROOT_TOL:
        return SubproblemStatus.NO_ROOT, None
    sol = solve_secular(lsp)
    if sol.r == 0.0:
        return SubproblemStatus.NO_ROOT, None
    alpha_J = spectrum.u.T @ sol.alpha_rotated
    alpha = np.zeros(s.size)
    alpha[J] = alpha_J
    zero_scale = SIGN_ZERO_REL * np.linalg.norm(alpha_J)
    if not (np.all(np.abs(alpha_J) > zero_scale)
            and np.all(np.sign(alpha_J) == s[J])):
        return SubproblemStatus.INFEASIBLE_SIGN, alpha
    inner = problem.group_matrix(k)[:, rest].T @ (residual - XJ @ alpha_J)
    if np.any(np.abs(soft_threshold(inner, lam2)) > BOUNDARY_SLACK):
        return SubproblemStatus.INFEASIBLE_BOUNDARY, alpha
    return SubproblemStatus.FEASIBLE, alpha


def test_gradient_form_matches_column_form():
    rng = np.random.default_rng(39)
    problems = [random_problem(rng, sizes=[3, 3]) for _ in range(5)]
    problems += list(_rank_deficient_problems(rng))
    seen = set()
    for problem in problems:
        cache = gl.SpectrumCache(problem)
        residual = problem.y - problem.design @ (
            0.3 * rng.standard_normal(problem.n_features))
        for k in range(problem.n_groups):
            g = problem.group_matrix(k).T @ residual
            lam1 = float(rng.uniform(0.05, 0.5)) * float(np.linalg.norm(g))
            lam2 = float(rng.uniform(0.05, 0.5)) * float(np.abs(g).max())
            size = int(problem.group_sizes[k])
            for signs in itertools.product((-1, 0, 1), repeat=size):
                if not any(signs):
                    continue
                ours = signed_subproblem(problem, k, g, signs, lam1, lam2,
                                         cache)
                status, alpha = _column_form(problem, k, residual, signs,
                                             lam1, lam2, cache)
                assert ours.status is status
                seen.add(status)
                if alpha is None:
                    assert ours.alpha is None
                    continue
                scale = 1.0 + np.linalg.norm(alpha)
                assert np.max(np.abs(ours.alpha - alpha)) <= 1e-12 * scale
    assert seen == set(SubproblemStatus)


@pytest.mark.parametrize("kind", ["plain", "sparse"])
def test_underdetermined_problems_still_solve(kind):
    rng = np.random.default_rng(38)
    for problem in _rank_deficient_problems(rng):
        top = gl.lambda_max(problem)
        if kind == "plain":
            penalty = gl.GroupLassoPenalty(0.1 * top)
            beta, trace = gl.solve_group_lasso(problem, penalty)
        else:
            penalty = gl.SparseGroupLassoPenalty(0.1 * top, 0.05 * top)
            beta, trace = gl.solve_sparse_group_lasso(problem, penalty)
        assert np.all(np.diff(trace.objective_per_sweep) <= 1e-12)
        ref, _ = gl.fista_solve(problem, penalty, gl.OracleOptions(tol=1e-9))
        ours = gl.objective(problem, penalty, beta)
        theirs = gl.objective(problem, penalty, ref)
        assert abs(ours - theirs) <= 1e-6 * (1 + abs(theirs))
        scale = 1.0 + float(np.abs(problem.design.T @ problem.y).max())
        assert gl.certificate(problem, penalty, beta).w_norm <= 1e-6 * scale


def test_monotone_descent_on_random_instances():
    rng = np.random.default_rng(37)
    for _ in range(5):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        penalty = gl.SparseGroupLassoPenalty(0.2 * top, 0.1 * top)
        _, trace = gl.solve_sparse_group_lasso(problem, penalty)
        assert np.all(np.diff(trace.objective_per_sweep) <= 1e-12)
        assert trace.boundary_slack_accepts >= 0


@pytest.mark.parametrize("rows, seed", [(80, 5), (80, 7), (14, 7), (14, 16)])
def test_a_duplicated_group_at_its_zero_boundary_still_solves(rows, seed):
    # group 4 copies group 0, so whenever group 0 is nonzero at an optimum
    # group 4's gradient sits on ||soft(g, lam2)|| = lam1 up to rounding; a
    # zero check that rounds one way and the anchor's secular zero root the
    # other must give the zero update, not an exhausted sign search
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((80, 12))
    X = np.hstack([base, base[:, :3]])[:rows]
    y = (base @ rng.standard_normal(12) + 0.1 * rng.standard_normal(80))[:rows]
    problem = gl.GroupedProblem(y, X, [3] * 5)
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 8)
    for lam, beta, trace in gl.solve_path(problem, lambdas, l1_ratio=0.5):
        assert trace.converged
        cert = gl.certificate(problem, gl.SparseGroupLassoPenalty(lam / 2, lam / 2),
                              beta)
        assert cert.w_norm <= 1e-4 * lam / 2  # perfbench's KKT limit on lam1
