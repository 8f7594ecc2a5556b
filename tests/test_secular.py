import numpy as np
import pytest

import exactgl as gl
from helpers import SQRT2, random_line_search


def _pair_ones():
    return gl.LineSearchProblem([1.0, 1.0], [1.0, 1.0], 1.0)


def test_f_eval_values():
    lsp = _pair_ones()
    assert gl.f_eval(lsp, 0.0) == pytest.approx(2.0, abs=1e-15)
    # closed-form root of 2/(r+1)^2 = 1
    assert gl.f_eval(lsp, SQRT2 - 1.0) == pytest.approx(1.0, abs=1e-14)
    silent = gl.LineSearchProblem([1.0, 2.0], [0.0, 0.0], 1.0)
    for r in (0.0, 0.3, 10.0):
        assert gl.f_eval(silent, r) == 0.0


def test_f_derivative_values():
    lsp = _pair_ones()
    assert gl.f_derivative(lsp, 0.0) == pytest.approx(-4.0, abs=1e-14)
    silent = gl.LineSearchProblem([1.0], [0.0], 1.0)
    assert gl.f_derivative(silent, 2.0) == 0.0
    flat = gl.LineSearchProblem([0.0, 0.0], [1.0, 1.0], 1.0)
    for r in (0.0, 1.0, 100.0):
        assert gl.f_derivative(flat, r) == 0.0
        assert gl.f_eval(flat, r) == pytest.approx(2.0)


def test_first_newton_step_from_zero():
    lsp = _pair_ones()
    r1 = 0.0 - (gl.f_eval(lsp, 0.0) - 1.0) / gl.f_derivative(lsp, 0.0)
    assert r1 == pytest.approx(0.25, abs=1e-15)


def test_solve_secular_pair_ones():
    result = gl.solve_secular(_pair_ones())
    assert result.r == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    np.testing.assert_allclose(result.alpha_rotated,
                               [1.0 - SQRT2 / 2.0] * 2, atol=1e-12)
    assert result.residual <= 1e-12
    assert result.newton_iters >= 1


def test_solve_secular_univariate():
    # 1.5^2/(r+0.5)^2 = 1 gives r = 1; alpha = 1.5/(1+0.5) = 1
    result = gl.solve_secular(gl.LineSearchProblem([1.0], [1.5], 0.5))
    assert result.r == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(result.alpha_rotated, [1.0], atol=1e-12)


def test_solve_secular_precondition():
    with pytest.raises(ValueError):
        gl.solve_secular(gl.LineSearchProblem([1.0], [0.5], 1.0))  # f(0) = 0.25


def test_no_finite_root_raises():
    # all mass on a null direction: f is the constant 4 > 1
    with pytest.raises(gl.SecularRootError):
        gl.solve_secular(gl.LineSearchProblem([0.0], [2.0], 1.0))


def test_line_search_problem_validation():
    with pytest.raises(ValueError):
        gl.LineSearchProblem([1.0, 1.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        gl.LineSearchProblem([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        gl.LineSearchProblem([-0.5], [1.0], 1.0)


def test_f_monotone_and_convex_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(50):
        lsp = random_line_search(rng)
        if not np.any((lsp.d > 0) & (lsp.v_eff != 0)):
            continue
        rs = np.sort(rng.uniform(0.01, 10.0, size=4))
        vals = [gl.f_eval(lsp, r) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # central second difference is nonnegative for a convex function
        for r in rs:
            h = 1e-4 * r
            second = (gl.f_eval(lsp, r + h) - 2 * gl.f_eval(lsp, r)
                      + gl.f_eval(lsp, r - h)) / h ** 2
            assert second >= -1e-7


def test_f_derivative_matches_finite_differences():
    rng = np.random.default_rng(22)
    for _ in range(50):
        lsp = random_line_search(rng)
        r = rng.uniform(0.1, 10.0)
        h = 1e-6 * (1 + r)
        numeric = (gl.f_eval(lsp, r + h) - gl.f_eval(lsp, r - h)) / (2 * h)
        exact = gl.f_derivative(lsp, r)
        assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-12)


def test_f_vanishes_at_infinity_after_clamp():
    rng = np.random.default_rng(23)
    for _ in range(50):
        lsp = random_line_search(rng)
        positive = lsp.d[lsp.d > 0]
        if positive.size == 0:
            continue
        far = 1e12 * lsp.lam / positive.min()
        assert gl.f_eval(lsp, far) < 1e-12
        assert gl.f_limit(lsp) == 0.0


def test_newton_iterates_increase_and_stay_above_one():
    rng = np.random.default_rng(24)
    for _ in range(50):
        lsp = random_line_search(rng)
        if gl.f_eval(lsp, 0.0) <= 1.0:
            continue
        r, fr = 0.0, gl.f_eval(lsp, 0.0)
        for _ in range(200):
            if abs(fr - 1.0) <= 1e-12:
                break
            step = -(fr - 1.0) / gl.f_derivative(lsp, r)
            assert step > 0.0
            r += step
            fr = gl.f_eval(lsp, r)
            assert fr >= 1.0 - 1e-12


def test_alpha_norm_equals_root_on_random_instances():
    rng = np.random.default_rng(25)
    for _ in range(200):
        lsp = random_line_search(rng)
        result = gl.solve_secular(lsp)
        assert np.linalg.norm(result.alpha_rotated) == pytest.approx(
            result.r, rel=1e-8)
        assert result.residual <= 1e-12


def _plain_newton_iters(lsp, tol=1e-12):
    """Iterations of Newton on f itself from r = 0, the reference method."""
    r, fr, iters = 0.0, gl.f_eval(lsp, 0.0), 0
    while abs(fr - 1.0) > tol:
        r -= (fr - 1.0) / gl.f_derivative(lsp, r)
        fr = gl.f_eval(lsp, r)
        iters += 1
    return r, iters


def test_one_step_when_all_eigenvalues_are_equal():
    assert gl.solve_secular(_pair_ones()).newton_iters == 1
    rng = np.random.default_rng(26)
    for _ in range(50):
        q = int(rng.integers(1, 12))
        v = rng.standard_normal(q)
        lam = rng.uniform(0.05, 0.95) * np.linalg.norm(v)
        lsp = gl.LineSearchProblem(np.full(q, rng.uniform(0.1, 10.0)), v, lam)
        result = gl.solve_secular(lsp)
        assert result.newton_iters == 1
        assert result.residual <= 1e-12


def test_reciprocal_newton_never_slower_than_plain_newton():
    rng = np.random.default_rng(27)
    total_new = total_plain = 0
    for _ in range(300):
        lsp = random_line_search(rng)
        if gl.f_eval(lsp, 0.0) <= 1.0:
            continue
        result = gl.solve_secular(lsp)
        r_plain, plain_iters = _plain_newton_iters(lsp)
        assert result.newton_iters <= plain_iters
        total_new += result.newton_iters
        total_plain += plain_iters
        # both roots meet the residual contract, so by the mean value
        # theorem they differ by at most 2e-12 / |f'| at the larger one
        assert result.residual <= 1e-12
        slope = gl.f_derivative(lsp, max(result.r, r_plain))
        assert abs(result.r - r_plain) <= (2e-12 + 1e-14) / abs(slope)
    assert total_new < 0.7 * total_plain


def test_reciprocal_newton_iterates_increase_and_stay_above_one():
    rng = np.random.default_rng(28)
    for _ in range(50):
        lsp = random_line_search(rng)
        if gl.f_eval(lsp, 0.0) <= 1.0:
            continue
        r, fr = 0.0, gl.f_eval(lsp, 0.0)
        for _ in range(50):
            if abs(fr - 1.0) <= 1e-12:
                break
            step = 2.0 * fr * (1.0 - np.sqrt(fr)) / gl.f_derivative(lsp, r)
            assert step > 0.0
            r += step
            fr = gl.f_eval(lsp, r)
            assert fr >= 1.0 - 1e-12
        else:
            pytest.fail("reciprocal Newton did not converge in 50 steps")


def test_bisection_fallback_is_flagged():
    rng = np.random.default_rng(29)
    for _ in range(20):
        lsp = random_line_search(rng)
        if gl.f_eval(lsp, 0.0) <= 1.0:
            continue
        assert not gl.solve_secular(lsp).bisected
        result = gl.solve_secular(lsp, max_newton=0)
        assert result.bisected
        assert result.newton_iters == 0
        assert result.residual <= 1e-12


def test_non_finite_target_hands_over_to_bisection_at_once():
    lsp = gl.LineSearchProblem([1.0, 2.0], [np.nan, 3.0], 1.0)
    with pytest.raises(gl.SecularRootError) as info:
        gl.solve_secular(lsp)
    # no Newton step was taken on a NaN slope
    assert info.value.best_r == 0.0
