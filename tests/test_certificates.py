import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import exactgl as gl
from exactgl.certificates import ls_quantities
from exactgl.problem import soft_threshold
from helpers import SQRT2, TRAP_OPTIMUM, fitted, random_problem, trap_problem


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


def test_ls_quantities_identity_design():
    problem = gl.GroupedProblem([1.0, -2.0], np.eye(2), [2])
    resid, beta_lse = ls_quantities(problem)
    np.testing.assert_allclose(resid, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(beta_lse.values, [1.0, -2.0], atol=1e-12)


def test_ls_quantities_single_column():
    problem = gl.GroupedProblem([1.0, 0.0], np.array([[1.0], [1.0]]), [1])
    resid, beta_lse = ls_quantities(problem)
    np.testing.assert_allclose(beta_lse.values, [0.5], atol=1e-12)
    np.testing.assert_allclose(resid, [0.5, -0.5], atol=1e-12)


def test_ls_quantities_orthogonality_and_cache():
    rng = np.random.default_rng(44)
    problem = random_problem(rng)
    resid, beta_lse = ls_quantities(problem)
    scale = 1e-8 * np.abs(problem.design.T @ problem.y).max()
    assert np.abs(problem.design.T @ resid).max() <= max(scale, 1e-12)
    again = ls_quantities(problem)
    assert again[1] is beta_lse


def test_ls_quantities_response_in_column_space():
    rng = np.random.default_rng(45)
    X = rng.standard_normal((10, 4))
    y = X @ rng.standard_normal(4)
    problem = gl.GroupedProblem(y, X, [2, 2])
    resid, _ = ls_quantities(problem)
    assert np.abs(resid).max() <= 1e-10


def test_accuracy_bounds_trap_at_zero():
    problem, penalty = trap_problem()
    zero = gl.Coefficients.zeros([2])
    cert = gl.certificate(problem, penalty, zero)
    # shrink of g = -(1,1): ||w|| = (sqrt2 - 1)
    assert cert.w_norm == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    optimum = gl.Coefficients([TRAP_OPTIMUM, TRAP_OPTIMUM], [2])
    bounds = gl.accuracy_bounds(problem, penalty, zero, cert,
                                reference=optimum)
    # basic bound: 0 + 2 (sqrt2-1)^2, true error 2 (1 - sqrt2/2)^2
    assert bounds.basic == pytest.approx(2 * (SQRT2 - 1) ** 2, abs=1e-12)
    assert bounds.basic == pytest.approx(0.3431457, abs=1e-6)
    true_err = float(np.sum((0.0 - fitted(problem, optimum)) ** 2))
    assert true_err == pytest.approx(2 * (1 - SQRT2 / 2) ** 2, abs=1e-12)
    assert true_err <= bounds.basic
    assert true_err <= bounds.objective + 1e-12
    assert true_err <= bounds.lse + 1e-12


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
            bounds = gl.accuracy_bounds(problem, penalty, beta, cert)
            err = float(np.sum((fitted(problem, beta) - y_ref) ** 2))
            assert err <= bounds.objective + 1e-8
            assert err <= bounds.lse + 1e-8


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
            bounds = gl.accuracy_bounds(problem, penalty, beta, cert)
            err = float(np.sum((fitted(problem, beta) - y_ref) ** 2))
            assert err <= bounds.objective + 1e-8
            assert err <= bounds.lse + 1e-8


def test_norm_chain_at_converged_solutions():
    # ||b|| <= sum_k ||b_k|| <= (L(b) - 0.5||P y||^2) / lam
    rng = np.random.default_rng(47)
    for _ in range(10):
        problem = random_problem(rng)
        lam = 0.4 * gl.lambda_max(problem)
        penalty = gl.GroupLassoPenalty(lam)
        beta, _ = gl.solve_group_lasso(problem, penalty)
        resid, _ = ls_quantities(problem)
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
    bounds = gl.accuracy_bounds(problem, penalty, beta, cert)
    assert bounds.basic is None
    assert bounds.objective >= 0.0 and bounds.lse >= 0.0


def test_accuracy_bounds_unaffected_by_writes_to_the_callers_arrays():
    # the least-squares quantities are memoized on the problem, so the
    # problem must not see later writes to the arrays it was built from
    rng = np.random.default_rng(49)
    X = np.asfortranarray(rng.standard_normal((20, 6)))
    y = X @ rng.standard_normal(6) + 0.1 * rng.standard_normal(20)
    problem = gl.GroupedProblem(y, X, [3, 3])
    fresh = gl.GroupedProblem(y.copy(), X.copy(), [3, 3])
    penalty = gl.GroupLassoPenalty(0.3 * gl.lambda_max(problem))
    beta, _ = gl.solve_group_lasso(problem, penalty)
    cert = gl.certificate(problem, penalty, beta)
    gl.accuracy_bounds(problem, penalty, beta, cert)
    y *= 3.0
    X *= 2.0
    after = gl.accuracy_bounds(problem, penalty, beta, cert)
    expected = gl.accuracy_bounds(fresh, penalty, beta,
                                  gl.certificate(fresh, penalty, beta))
    assert after == expected


_BAD_PIECES = textwrap.dedent("""
    import sys
    import numpy as np
    import exactgl as gl
    from exactgl import certificates

    if not sys.flags.optimize:
        raise SystemExit("expected python -O")
    # a group-norm subgradient of norm 2, outside the unit ball
    certificates._group_pieces = lambda lam1, lam2, g, bk: (
        g, np.array([2.0, 0.0]), np.zeros(2))
    problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
    gl.certificate(problem, gl.GroupLassoPenalty(1.0),
                   gl.Coefficients.zeros([2]))
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
