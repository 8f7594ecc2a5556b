import itertools

import numpy as np
import pytest

import exactgl as gl
from exactgl import sparse_group_lasso
from exactgl.problem import gamma, penalty_weights, soft_threshold
from exactgl.secular import ROOT_TOL, solve_secular
from exactgl.sparse_group_lasso import (SIGN_ZERO_REL, SubproblemStatus,
                                        sign_order, signed_subproblem,
                                        solve_sparse_group_lasso, zero_check)
from helpers import fitted, grid_refine, random_problem


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
                               0.5, 0.5, cache, [0.0] * problem.n_groups)
    assert result.status is SubproblemStatus.FEASIBLE
    # univariate sparse group lasso is a lasso with weight lam1 + lam2
    assert np.linalg.norm(result.alpha) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(result.alpha, [1.0], atol=1e-10)


def test_signed_subproblem_univariate_wrong_sign():
    # v = 2 + 0.5 = 2.5, root of (2.5/(r+0.5))^2 = 1 is r = 2, alpha = +2
    problem = _univariate_problem(2.0)
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (-1,),
                               0.5, 0.5, cache, [0.0] * problem.n_groups)
    assert result.status is SubproblemStatus.INFEASIBLE_SIGN
    assert np.linalg.norm(result.alpha) == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(result.alpha, [2.0], atol=1e-10)


def test_signed_subproblem_no_root():
    # gradient exactly lam2: the shifted target vanishes, f is identically 0
    problem = _univariate_problem(0.5)
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (1,),
                               0.5, 0.5, cache, [0.0] * problem.n_groups)
    assert result.status is SubproblemStatus.NO_ROOT


def test_signed_subproblem_requires_support():
    problem = _univariate_problem()
    cache = gl.SpectrumCache(problem)
    with pytest.raises(ValueError):
        signed_subproblem(problem, 0, _gradient(problem), (0,),
                          0.5, 0.5, cache, [0.0] * problem.n_groups)


def test_signed_subproblem_boundary_rejection():
    # two coordinates, identity design: leaving j=2 out is infeasible when
    # its residual correlation exceeds lam2
    y = np.array([2.0, 0.9])
    problem = gl.GroupedProblem(y, np.eye(2), [2])
    cache = gl.SpectrumCache(problem)
    result = signed_subproblem(problem, 0, _gradient(problem), (1, 0),
                               0.5, 0.5, cache, [0.0] * problem.n_groups)
    assert result.status is SubproblemStatus.INFEASIBLE_BOUNDARY
    both = signed_subproblem(problem, 0, _gradient(problem), (1, 1),
                             0.5, 0.5, cache, [0.0] * problem.n_groups)
    assert both.status is SubproblemStatus.FEASIBLE


def _l1_distance(signs, anchor):
    # a drop or an entry costs 1, a sign change 2
    return sum(abs(a - b) for a, b in zip(signs, anchor))


def _referee(anchor, previous=None):
    # every nonzero pattern but `previous`, by (L1 distance, +1 < 0 < -1)
    rank = {1: 0, 0: 1, -1: 2}
    rest = sorted((s for s in itertools.product((1, 0, -1), repeat=len(anchor))
                   if any(s) and s != previous),
                  key=lambda s: (_l1_distance(s, anchor),
                                 tuple(rank[v] for v in s)))
    return rest if previous is None else [previous] + rest


def test_sign_order_dedup_and_counts():
    # the anchor (1, 0, -1) holds a zero, and the zero pattern is never tried
    g = np.array([2.0, 0.1, -1.0])
    anchor = (1, 0, -1)
    for previous in (None, anchor, (0, 1, 0)):
        out = list(sign_order(g, 0.5, previous=previous))
        assert len(out) == 3 ** 3 - 1
        assert len(set(out)) == 3 ** 3 - 1
        assert (0, 0, 0) not in out
        assert out[0] == (anchor if previous is None else previous)

    single = list(sign_order(np.array([0.1]), 0.5))
    assert set(single) == {(1,), (-1,)}
    assert len(single) == 2


def test_sign_order_previous_first_then_anchor_then_rings():
    g = np.array([2.0, -1.0, 0.2])
    previous = (0, 1, 1)
    # taking `previous` forms no anchor, so g is not even read
    assert next(sign_order(None, None, previous=previous)) == previous
    out = list(sign_order(g, 0.5, previous=previous))
    assert out[0] == previous
    anchor = (1, -1, 0)
    assert out[1] == anchor
    dist = [_l1_distance(sv, anchor) for sv in out[1:]]
    assert dist == sorted(dist)
    # the farthest pattern flips both nonzero entries and enters the zero one
    assert dist[-1] == 2 + 2 + 1
    # ring 1 holds the drops and entries only, +1 before 0 before -1
    assert [sv for sv, d in zip(out[1:], dist) if d == 1] == [
        (1, 0, 0), (1, -1, 1), (1, -1, -1), (0, -1, 0)]
    # a sign flip is two steps away, so it follows every drop and entry
    ring2 = [sv for sv, d in zip(out[1:], dist) if d == 2]
    assert (1, 1, 0) in ring2 and (-1, -1, 0) in ring2


def test_sign_order_matches_a_brute_force_reference():
    rng = np.random.default_rng(47)
    for p in range(1, 7):
        for _ in range(4):
            g = rng.normal(size=p) * rng.choice([0.3, 1.0, 3.0])
            # below max|g|, so the anchor is nonzero, as after a failed
            # zero check; at 0.9 of it most anchors also hold zeros, where
            # a coordinate can move by 1 rather than 2
            lam2 = float(rng.uniform(0.0, 0.9)) * float(np.abs(g).max())
            anchor = tuple(int(v) for v in np.sign(soft_threshold(g, lam2)))
            nonzero = [s for s in itertools.product((1, 0, -1), repeat=p)
                       if any(s)]
            for previous in (None, nonzero[rng.integers(len(nonzero))],
                             anchor):
                out = list(sign_order(g, lam2, previous=previous))
                assert out == _referee(anchor, previous)
                assert len(out) == 3 ** p - 1
                assert all(any(s) for s in out)
    # the suffix bound differs where the anchor holds zeros: a zero at the
    # front, in the middle and at the end
    for g in ([0.1, 2.0, -3.0], [2.0, 0.1, -3.0, 0.2], [-2.0, 3.0, 0.1]):
        anchor = tuple(int(v) for v in np.sign(soft_threshold(np.array(g), 0.5)))
        assert 0 in anchor
        assert list(sign_order(np.array(g), 0.5)) == _referee(anchor)


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
    ref, ref_trace = gl.fista_solve(problem, penalty,
                                    gl.SolveOptions(tol=1e-10 / penalty.lam1))
    assert ref_trace.converged
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
        ref, ref_trace = gl.fista_solve(
            problem, penalty, gl.SolveOptions(tol=1e-10 / penalty.lam1))
        assert ref_trace.converged
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
            res = signed_subproblem(problem, 0, g, signs, lam1, lam2, cache,
                                    [0.0] * problem.n_groups)
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


def test_a_spectrum_cache_of_another_problem_fails_up_front():
    rng = np.random.default_rng(19)
    problem = random_problem(rng, sizes=[2, 2], n=10)
    top = gl.lambda_max(problem)
    penalty = gl.SparseGroupLassoPenalty(0.05 * top, 0.05 * top)
    others = (gl.GroupedProblem(problem.y, 2.0 * problem.design, [2, 2]),
              gl.GroupedProblem(problem.y, problem.design, [1, 3]))
    for other in others:
        with pytest.raises(ValueError, match="another problem"):
            gl.solve_sparse_group_lasso(problem, penalty,
                                        spectra=gl.SpectrumCache(other))


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


def test_each_secular_solve_starts_from_its_groups_last_root(monkeypatch):
    # One root per group, as in the plain update: a candidate's secular
    # solve starts from the root that the group's previous solve returned
    # in the same solve, whatever support that solve had, and from 0 on
    # the group's first solve; a new solve starts every group from 0.
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=20, n_groups=30, group_size=3, a=0.5, b=0.3, seed=3))
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 8)
    state = {"solve": -1}
    calls = []  # (solve, group, support, r0, root)

    def counted_solve(*args, **kwargs):
        state["solve"] += 1
        return solve_sparse_group_lasso(*args, **kwargs)

    def learn_group(problem, k, g, signs, *args):
        state["group"], state["support"] = k, np.flatnonzero(signs).tolist()
        return signed_subproblem(problem, k, g, signs, *args)

    def recorded(lsp, r0=0.0):
        result = solve_secular(lsp, r0=r0)
        calls.append((state["solve"], state["group"], state["support"], r0,
                      result.r))
        return result

    monkeypatch.setattr(sparse_group_lasso, "solve_sparse_group_lasso",
                        counted_solve)
    monkeypatch.setattr(sparse_group_lasso, "signed_subproblem", learn_group)
    monkeypatch.setattr(sparse_group_lasso, "solve_secular", recorded)
    gl.solve_path(problem, lambdas, l1_ratio=0.5)
    assert state["solve"] == len(lambdas) - 1
    last = {}
    across = 0  # seeds taken from a root of another support
    for solve, k, support, r0, root in calls:
        before = last.get((solve, k))
        assert r0 == (before[1] if before else 0.0)
        across += before is not None and before[0] != support and r0 > 0.0
        last[(solve, k)] = (support, root)
    assert across > 0


def test_singular_support_gram_floor_detection():
    # one sample, two-wide group: the support Gram [[1,1],[1,1]] is singular.
    # A misaligned sign shift puts real mass on the null eigendirection, so
    # f(r) never descends to 1; that candidate must report NO_ROOT instead
    # of stalling the root finder.
    problem = gl.GroupedProblem([3.0], np.array([[1.0, 1.0]]), [2])
    cache = gl.SpectrumCache(problem)
    misaligned = signed_subproblem(problem, 0, _gradient(problem), (1, -1),
                                   0.1, 0.5, cache, [0.0] * problem.n_groups)
    assert misaligned.status is SubproblemStatus.NO_ROOT
    aligned = signed_subproblem(problem, 0, _gradient(problem), (1, 1),
                                0.1, 0.5, cache, [0.0] * problem.n_groups)
    assert aligned.status is SubproblemStatus.FEASIBLE

    penalty = gl.SparseGroupLassoPenalty(0.1, 0.5)
    beta, trace = gl.solve_sparse_group_lasso(problem, penalty)
    assert trace.converged
    ours = gl.objective(problem, penalty, beta)
    gridded = grid_refine(problem, penalty, (-2.0, 4.0), 0.02)
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
    X_rest = problem.group_matrix(k)[:, rest]
    inner = X_rest.T @ (residual - XJ @ alpha_J)
    # the rounding bound of these two products and the subtraction, and the
    # excess that the sign check would call zero, as in the solver
    bound = gamma(problem.n_samples + s.size + 1) * (
        np.abs(X_rest).T @ (np.abs(residual) + np.abs(XJ) @ np.abs(alpha_J)))
    bound += 2 * (zero_scale * (X_rest ** 2).sum(axis=0) + SIGN_ZERO_REL * lam1)
    if np.any(np.abs(soft_threshold(inner, lam2)) > bound):
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
                                         cache, [0.0] * problem.n_groups)
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
        ref, ref_trace = gl.fista_solve(problem, penalty, gl.SolveOptions(
            tol=1e-9 / penalty_weights(penalty)[0]))
        assert ref_trace.converged
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


@pytest.mark.parametrize("seed", range(4))
def test_a_near_tie_on_the_box_still_solves(seed):
    # one group whose support changes at some lam2: at a value of lam2 within
    # a few 1e-12 of that point, the pattern without the entering coordinate
    # exceeds its box by about what the pattern with it would give that
    # coordinate, and the sign check calls that zero.  An off-support slack
    # of the box product's rounding alone rejected both patterns there.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((20, 4)) * np.logspace(-1, 1, 4)
    y = X @ rng.standard_normal(4) + 0.5 * rng.standard_normal(20)
    problem = gl.GroupedProblem(y, X, [4])
    g = np.abs(X.T @ y)
    lam1 = 0.3 * float(np.linalg.norm(g))

    def solve(lam2):
        penalty = gl.SparseGroupLassoPenalty(lam1, lam2)
        beta, trace = gl.solve_sparse_group_lasso(problem, penalty)
        assert trace.converged
        assert gl.certificate(problem, penalty, beta).kkt_ratio <= 1e-10
        return np.count_nonzero(beta.values), trace

    lo, hi = 1e-6 * g.max(), 0.9 * g.max()
    support = solve(lo)[0]
    assert solve(hi)[0] != support
    while hi - lo > 4 * np.spacing(hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if solve(mid)[0] == support else (lo, mid)
    accepts = sum(solve(lo * (1 + k * 1e-14))[1].boundary_slack_accepts
                  for k in range(-300, 301, 20))
    assert accepts > 0


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
