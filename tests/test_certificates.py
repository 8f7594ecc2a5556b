import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import exactgl as gl
from exactgl.problem import soft_threshold
from helpers import (SQRT2, TRAP_OPTIMUM, certificate_w_by_group, fitted,
                     random_problem, trap_problem)


def test_certificate_small_at_converged_solution():
    problem, penalty = trap_problem()
    beta, _ = gl.solve_group_lasso(problem, penalty)
    cert = gl.certificate(problem, penalty, beta)
    assert cert.w_norm <= 1e-8


def test_certificate_zero_above_lambda_max():
    rng = np.random.default_rng(41)
    problem = random_problem(rng)
    lam = gl.lambda_max(problem) * 1.5
    beta = gl.Coefficients.zeros(problem.group_sizes)
    cert = gl.certificate(problem, gl.GroupLassoPenalty(lam), beta)
    assert cert.w_norm == 0.0
    np.testing.assert_array_equal(cert.w, np.zeros(problem.n_features))


def test_certificate_zero_group_shrink_formula():
    # gradient at zero is (2, 0); the shrink leaves (2*(1 - 1/2), 0) = (1, 0)
    problem = gl.GroupedProblem([-2.0, 0.0], np.eye(2), [2])
    beta = gl.Coefficients.zeros([2])
    cert = gl.certificate(problem, gl.GroupLassoPenalty(1.0), beta)
    np.testing.assert_allclose(cert.w, [1.0, 0.0], atol=1e-14)


def test_certificate_membership_on_random_points():
    # reconstructed subgradient pieces must sit in their constraint sets
    rng = np.random.default_rng(42)
    for _ in range(20):
        problem = random_problem(rng)
        beta = gl.Coefficients(
            rng.standard_normal(problem.n_features) * (rng.random(problem.n_features) < 0.6),
            problem.group_sizes)
        for penalty in (gl.GroupLassoPenalty(0.7),
                        gl.SparseGroupLassoPenalty(0.6, 0.4)):
            cert = gl.certificate(problem, penalty, beta)
            resid = problem.y - problem.design @ beta.values
            lam2 = getattr(penalty, "lam2", 0.0)
            lam_g = getattr(penalty, "lam1", getattr(penalty, "lam", None))
            for k in range(problem.n_groups):
                g = -(problem.group_matrix(k).T @ resid)
                wk = cert.w[problem.group_slice(k)]
                bk = beta.group(k)
                if np.linalg.norm(bk) > 0:
                    t = np.sign(bk) if lam2 else np.zeros_like(bk)
                    s = (wk - g - lam2 * t) / lam_g
                    free = bk == 0
                    # on zero coordinates the 1-norm piece absorbs instead
                    s[free] = 0.0
                    assert np.linalg.norm(s) <= 1 + 1e-9
                else:
                    # whole vector must be reachable as g + ball + box
                    reach = np.linalg.norm(soft_threshold(wk - g, lam2))
                    assert reach <= lam_g * (1 + 1e-9)


def _mixed_point(rng, sizes):
    """Random point with all-zero groups and zeros inside nonzero groups."""
    parts = []
    for size in sizes:
        if rng.random() < 0.35:
            parts.append(np.zeros(size))
        else:
            part = rng.standard_normal(size) * (rng.random(size) < 0.6)
            part[rng.integers(size)] = rng.standard_normal()
            parts.append(part)
    return gl.Coefficients(np.concatenate(parts), sizes)


def test_certificate_matches_group_by_group_construction():
    # the vectorized w agrees with a per-group build to a few ulps of the
    # largest term it sums, on every kind of group and coordinate, and is
    # exactly zero at zero above lambda_max
    rng = np.random.default_rng(53)
    eps = np.finfo(np.float64).eps
    kinds = set()
    for _ in range(40):
        sizes = np.concatenate(([1], rng.integers(1, 5, size=4), [3]))
        problem = random_problem(rng, sizes=sizes)
        beta = _mixed_point(rng, sizes)
        zero = gl.Coefficients.zeros(sizes)
        top = gl.lambda_max(problem)
        for point, frac in ((beta, rng.uniform(0.05, 1.2)), (zero, 1.5)):
            for penalty in (gl.GroupLassoPenalty(frac * top),
                            gl.SparseGroupLassoPenalty(frac * top,
                                                       0.3 * frac * top)):
                cert = gl.certificate(problem, penalty, point)
                expected = certificate_w_by_group(problem, penalty, point)
                if point is zero:
                    np.testing.assert_array_equal(cert.w, 0.0)
                    np.testing.assert_array_equal(expected, 0.0)
                    continue
                xtr = problem.design.T @ (problem.y - fitted(problem, point))
                limit = 8 * eps * (frac * top + np.abs(xtr).max())
                np.testing.assert_allclose(cert.w, expected, rtol=0, atol=limit)
        norms = beta.group_norms()
        if np.any(norms == 0):
            kinds.add("zero group")
        if np.any(norms[sizes == 1] > 0):
            kinds.add("one-column group")
        if any(np.any(beta.group(k) == 0) for k in np.flatnonzero(norms > 0)):
            kinds.add("zero inside a nonzero group")
    assert kinds == {"zero group", "one-column group",
                     "zero inside a nonzero group"}


def test_certificate_norm_small_on_converged_runs():
    rng = np.random.default_rng(43)
    for _ in range(10):
        problem = random_problem(rng)
        scale = 1 + np.abs(problem.design.T @ problem.y).max()
        top = gl.lambda_max(problem)
        penalty = gl.GroupLassoPenalty(0.3 * top)
        beta, trace = gl.solve_group_lasso(problem, penalty)
        assert trace.converged
        assert gl.certificate(problem, penalty, beta).w_norm <= 1e-6 * scale
        sparse = gl.SparseGroupLassoPenalty(0.25 * top, 0.1 * top)
        beta2, trace2 = gl.solve_sparse_group_lasso(problem, sparse)
        assert trace2.converged
        assert gl.certificate(problem, sparse, beta2).w_norm <= 1e-6 * scale


def test_accuracy_bounds_trap_at_zero():
    problem, penalty = trap_problem()
    zero = gl.Coefficients.zeros([2])
    cert = gl.certificate(problem, penalty, zero)
    # shrink of g = -(1,1): ||w|| = (sqrt2 - 1)
    assert cert.w_norm == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    optimum = gl.Coefficients([TRAP_OPTIMUM, TRAP_OPTIMUM], [2])
    # true error 2 (1 - sqrt2/2)^2
    true_err = float(np.sum((0.0 - fitted(problem, optimum)) ** 2))
    assert true_err == pytest.approx(2 * (1 - SQRT2 / 2) ** 2, abs=1e-12)
    assert true_err <= cert.gap + 1e-12


def test_bounds_hold_along_solver_trajectory():
    rng = np.random.default_rng(46)
    for _ in range(5):
        problem = random_problem(rng)
        penalty = gl.GroupLassoPenalty(0.3 * gl.lambda_max(problem))
        ref, iters = gl.fista_solve(problem, penalty,
                                    gl.OracleOptions(tol=1e-10))
        assert iters < 200_000
        y_ref = fitted(problem, ref)
        iterates = []
        gl.solve_group_lasso(problem, penalty,
                             on_sweep=lambda s, b: iterates.append(b.copy()))
        for beta in iterates:
            cert = gl.certificate(problem, penalty, beta)
            err = float(np.sum((fitted(problem, beta) - y_ref) ** 2))
            assert err <= cert.gap + 1e-8


def test_bounds_hold_along_sparse_solver_trajectory():
    rng = np.random.default_rng(49)
    for _ in range(5):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        penalty = gl.SparseGroupLassoPenalty(0.25 * top, 0.1 * top)
        ref, iters = gl.fista_solve(problem, penalty,
                                    gl.OracleOptions(tol=1e-10))
        assert iters < 200_000
        y_ref = fitted(problem, ref)
        iterates = []
        gl.solve_sparse_group_lasso(
            problem, penalty, on_sweep=lambda s, b: iterates.append(b.copy()))
        for beta in iterates:
            cert = gl.certificate(problem, penalty, beta)
            err = float(np.sum((fitted(problem, beta) - y_ref) ** 2))
            assert err <= cert.gap + 1e-8


def test_norm_chain_at_converged_solutions():
    # ||b|| <= sum_k ||b_k|| <= (L(b) - 0.5||P y||^2) / lam
    rng = np.random.default_rng(47)
    for _ in range(10):
        problem = random_problem(rng)
        lam = 0.4 * gl.lambda_max(problem)
        penalty = gl.GroupLassoPenalty(lam)
        beta, _ = gl.solve_group_lasso(problem, penalty)
        values = np.linalg.lstsq(problem.design, problem.y, rcond=None)[0]
        resid = problem.y - problem.design @ values
        value = gl.objective(problem, penalty, beta)
        chain = (value - 0.5 * float(resid @ resid)) / lam
        norms_sum = float(beta.group_norms().sum())
        assert np.linalg.norm(beta.values) <= norms_sum + 1e-12
        assert norms_sum <= chain + 1e-9


def test_bounds_nonnegative_and_basic_requires_reference():
    rng = np.random.default_rng(48)
    problem = random_problem(rng)
    penalty = gl.GroupLassoPenalty(0.5 * gl.lambda_max(problem))
    beta, _ = gl.solve_group_lasso(problem, penalty)
    cert = gl.certificate(problem, penalty, beta)
    assert cert.gap >= 0.0
    assert gl.accuracy_bounds(problem, penalty, beta, cert) == cert.gap


def test_accuracy_bounds_unaffected_by_writes_to_the_callers_arrays():
    # the problem copies its inputs, so later writes to the arrays it was
    # built from cannot change a certificate or its bound
    rng = np.random.default_rng(49)
    X = np.asfortranarray(rng.standard_normal((20, 6)))
    y = X @ rng.standard_normal(6) + 0.1 * rng.standard_normal(20)
    problem = gl.GroupedProblem(y, X, [3, 3])
    fresh = gl.GroupedProblem(y.copy(), X.copy(), [3, 3])
    penalty = gl.GroupLassoPenalty(0.3 * gl.lambda_max(problem))
    beta, _ = gl.solve_group_lasso(problem, penalty)
    gl.certificate(problem, penalty, beta)
    y *= 3.0
    X *= 2.0
    after = gl.certificate(problem, penalty, beta)
    expected = gl.certificate(fresh, penalty, beta)
    assert after.gap == expected.gap
    np.testing.assert_array_equal(after.w, expected.w)


def test_nothing_writes_onto_a_problem():
    rng = np.random.default_rng(50)
    problem = random_problem(rng)
    before = dict(vars(problem))
    ladder = gl.lambda_max(problem) * 0.5 ** np.arange(1, 4)
    for l1_ratio in (None, 0.5):
        for lam, beta, _ in gl.solve_path(problem, ladder, l1_ratio=l1_ratio):
            penalty = (gl.GroupLassoPenalty(lam) if l1_ratio is None
                       else gl.SparseGroupLassoPenalty(lam / 2, lam / 2))
            gl.certificate(problem, penalty, beta)
    assert vars(problem).keys() == before.keys()
    assert all(vars(problem)[key] is value for key, value in before.items())


@pytest.mark.parametrize("scale", [2.0 ** -30, 1.0, 2.0 ** 30])
@pytest.mark.parametrize("sparse", [False, True])
def test_gap_bound_scales_exactly(sparse, scale):
    # powers of two scale every floating-point step exactly, so the bound at
    # (s*y, X, s*lam, s*b) is s^2 times the bound at (y, X, lam, b) bit for bit
    rng = np.random.default_rng(51)
    problem = random_problem(rng, sizes=[3, 2, 4])
    p = problem.n_features
    values = rng.standard_normal(p) * (rng.random(p) < 0.6)
    lam = 0.3 * gl.lambda_max(problem)

    def gap(s):
        scaled = gl.GroupedProblem(s * problem.y, problem.design,
                                   problem.group_sizes)
        penalty = (gl.SparseGroupLassoPenalty(s * lam / 2, s * lam / 4)
                   if sparse else gl.GroupLassoPenalty(s * lam))
        beta = gl.Coefficients(s * values, problem.group_sizes)
        return gl.certificate(scaled, penalty, beta).gap

    base = gap(1.0)
    assert base > 0.0
    assert gap(scale) == scale * scale * base


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_gap_bound_is_zero_at_zero_at_or_above_lambda_max(factor):
    rng = np.random.default_rng(52)
    for _ in range(10):
        problem = random_problem(rng)
        top = gl.lambda_max(problem)
        zero = gl.Coefficients.zeros(problem.group_sizes)
        for penalty in (gl.GroupLassoPenalty(factor * top),
                        gl.SparseGroupLassoPenalty(factor * top, 0.3 * top)):
            assert gl.certificate(problem, penalty, zero).gap == 0.0


_BAD_PIECES = textwrap.dedent("""
    import sys
    import numpy as np
    import exactgl as gl

    if not sys.flags.optimize:
        raise SystemExit("expected python -O")
    # a NaN group norm is neither zero nor a valid direction b_k/||b_k||
    problem = gl.GroupedProblem(np.ones(4), np.eye(4), [2, 2])
    gl.certificate(problem, gl.GroupLassoPenalty(1.0),
                   gl.Coefficients([np.nan, 0.0, 0.0, 0.0], [2, 2]))
""")


def test_membership_check_survives_optimized_python():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run([sys.executable, "-O", "-c", _BAD_PIECES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "outside unit ball" in done.stderr
