import math

import numpy as np
import pytest

import exactgl as gl
from exactgl import secular
from exactgl.secular import ROOT_TOL, solve_secular
from helpers import SQRT2, f_derivative, f_eval, line_search, random_line_search


def _pair_ones():
    return line_search([1.0, 1.0], [1.0, 1.0], 1.0)


def test_f_eval_values():
    lsp = _pair_ones()
    assert f_eval(lsp, 0.0) == pytest.approx(2.0, abs=1e-15)
    # closed-form root of 2/(r+1)^2 = 1
    assert f_eval(lsp, SQRT2 - 1.0) == pytest.approx(1.0, abs=1e-14)
    silent = line_search([1.0, 2.0], [0.0, 0.0], 1.0)
    for r in (0.0, 0.3, 10.0):
        assert f_eval(silent, r) == 0.0


def test_f_derivative_values():
    lsp = _pair_ones()
    assert f_derivative(lsp, 0.0) == pytest.approx(-4.0, abs=1e-14)
    silent = line_search([1.0], [0.0], 1.0)
    assert f_derivative(silent, 2.0) == 0.0
    flat = line_search([0.0, 0.0], [1.0, 1.0], 1.0)
    for r in (0.0, 1.0, 100.0):
        assert f_derivative(flat, r) == 0.0
        assert f_eval(flat, r) == pytest.approx(2.0)


def test_first_newton_step_from_zero():
    lsp = _pair_ones()
    r1 = 0.0 - (f_eval(lsp, 0.0) - 1.0) / f_derivative(lsp, 0.0)
    assert r1 == pytest.approx(0.25, abs=1e-15)


def test_solve_secular_pair_ones():
    result = solve_secular(_pair_ones())
    assert result.r == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    np.testing.assert_allclose(result.alpha_rotated,
                               [1.0 - SQRT2 / 2.0] * 2, atol=1e-12)
    assert result.residual <= 1e-12
    # equal eigenvalues: the cold start (||v|| - lam) / max(d) is the root
    assert result.newton_iters == 0


def test_solve_secular_univariate():
    # 1.5^2/(r+0.5)^2 = 1 gives r = 1; alpha = 1.5/(1+0.5) = 1
    result = solve_secular(line_search([1.0], [1.5], 0.5))
    assert result.r == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(result.alpha_rotated, [1.0], atol=1e-12)


def test_solve_secular_precondition():
    # f(0) = 0.25 <= 1: zero is optimal, and the result is the zero root
    result = solve_secular(line_search([1.0, 2.0], [0.5, 0.0], 1.0))
    assert result.r == 0.0
    np.testing.assert_array_equal(result.alpha_rotated, [0.0, 0.0])
    assert result.newton_iters == 0
    assert result.residual == 0.0
    # the boundary f(0) = 1 is included
    assert solve_secular(line_search([1.0], [1.0], 1.0)).r == 0.0


def test_no_finite_root_raises():
    # all mass on a null direction: f is the constant 4 > 1
    with pytest.raises(gl.SecularRootError):
        solve_secular(line_search([0.0], [2.0], 1.0))


def test_f_monotone_and_convex_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(50):
        lsp = random_line_search(rng)
        if not np.any((np.asarray(lsp.d) > 0) & (np.asarray(lsp.v) != 0)):
            continue
        rs = np.sort(rng.uniform(0.01, 10.0, size=4))
        vals = [f_eval(lsp, r) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # central second difference is nonnegative for a convex function
        for r in rs:
            h = 1e-4 * r
            second = (f_eval(lsp, r + h) - 2 * f_eval(lsp, r)
                      + f_eval(lsp, r - h)) / h ** 2
            assert second >= -1e-7


def test_f_derivative_matches_finite_differences():
    rng = np.random.default_rng(22)
    for _ in range(50):
        lsp = random_line_search(rng)
        r = rng.uniform(0.1, 10.0)
        h = 1e-6 * (1 + r)
        numeric = (f_eval(lsp, r + h) - f_eval(lsp, r - h)) / (2 * h)
        exact = f_derivative(lsp, r)
        assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-12)


def test_f_vanishes_at_infinity_after_clamp():
    rng = np.random.default_rng(23)
    for _ in range(50):
        lsp = random_line_search(rng)
        d = np.asarray(lsp.d)
        positive = d[d > 0]
        if positive.size == 0:
            continue
        far = 1e12 * lsp.lam / positive.min()
        assert f_eval(lsp, far) < 1e-12
        assert lsp.floor == 0.0


def test_newton_iterates_increase_and_stay_above_one():
    rng = np.random.default_rng(24)
    for _ in range(50):
        lsp = random_line_search(rng)
        if f_eval(lsp, 0.0) <= 1.0:
            continue
        r, fr = 0.0, f_eval(lsp, 0.0)
        for _ in range(200):
            if abs(fr - 1.0) <= 1e-12:
                break
            step = -(fr - 1.0) / f_derivative(lsp, r)
            assert step > 0.0
            r += step
            fr = f_eval(lsp, r)
            assert fr >= 1.0 - 1e-12


def test_alpha_norm_equals_root_on_random_instances():
    rng = np.random.default_rng(25)
    for _ in range(200):
        lsp = random_line_search(rng)
        result = solve_secular(lsp)
        assert np.linalg.norm(result.alpha_rotated) == pytest.approx(
            result.r, rel=1e-8)
        assert result.residual <= 1e-12


def _plain_newton_iters(lsp, tol=1e-12):
    """Iterations of Newton on f itself from r = 0, the reference method."""
    r, fr, iters = 0.0, f_eval(lsp, 0.0), 0
    while abs(fr - 1.0) > tol:
        r -= (fr - 1.0) / f_derivative(lsp, r)
        fr = f_eval(lsp, r)
        iters += 1
    return r, iters


def test_no_step_when_all_eigenvalues_are_equal():
    # the cold start (||v|| - lam) / max(d) is then the root itself
    assert solve_secular(_pair_ones()).newton_iters == 0
    rng = np.random.default_rng(26)
    for _ in range(50):
        q = int(rng.integers(1, 12))
        v = rng.standard_normal(q)
        lam = rng.uniform(0.05, 0.95) * np.linalg.norm(v)
        lsp = line_search(np.full(q, rng.uniform(0.1, 10.0)), v, lam)
        result = solve_secular(lsp)
        assert result.newton_iters == 0
        assert result.residual <= 1e-12


def test_reciprocal_newton_never_slower_than_plain_newton():
    rng = np.random.default_rng(27)
    total_new = total_plain = 0
    for _ in range(300):
        lsp = random_line_search(rng)
        if f_eval(lsp, 0.0) <= 1.0:
            continue
        result = solve_secular(lsp)
        r_plain, plain_iters = _plain_newton_iters(lsp)
        assert result.newton_iters <= plain_iters
        total_new += result.newton_iters
        total_plain += plain_iters
        # both roots meet the residual contract, so by the mean value
        # theorem they differ by at most 2e-12 / |f'| at the larger one
        assert result.residual <= 1e-12
        slope = f_derivative(lsp, max(result.r, r_plain))
        assert abs(result.r - r_plain) <= (2e-12 + 1e-14) / abs(slope)
    assert total_new < 0.7 * total_plain


def test_reciprocal_newton_iterates_increase_and_stay_above_one():
    rng = np.random.default_rng(28)
    for _ in range(50):
        lsp = random_line_search(rng)
        if f_eval(lsp, 0.0) <= 1.0:
            continue
        r, fr = 0.0, f_eval(lsp, 0.0)
        for _ in range(50):
            if abs(fr - 1.0) <= 1e-12:
                break
            step = 2.0 * fr * (1.0 - np.sqrt(fr)) / f_derivative(lsp, r)
            assert step > 0.0
            r += step
            fr = f_eval(lsp, r)
            assert fr >= 1.0 - 1e-12
        else:
            pytest.fail("reciprocal Newton did not converge in 50 steps")


def test_non_finite_target_raises_at_once():
    # a NaN fails the loop test and the slope test, so it raises at once
    lsp = line_search([1.0, 2.0], [np.nan, 3.0], 1.0)
    with pytest.raises(gl.SecularRootError) as info:
        solve_secular(lsp)
    # no Newton step was taken on a NaN slope
    assert info.value.best_r == 0.0


def test_iteration_cap_raises_with_the_last_iterate(monkeypatch):
    rng = np.random.default_rng(29)
    lsps = [lsp for lsp in (random_line_search(rng) for _ in range(40))
            if solve_secular(lsp).newton_iters >= 2]
    assert lsps
    monkeypatch.setattr(secular, "MAX_NEWTON_ITERS", 1)
    for lsp in lsps:
        with pytest.raises(gl.SecularRootError) as info:
            solve_secular(lsp)
        # one step from the cold start rises, and stops below the root
        assert info.value.best_r > 0.0
        assert f_eval(lsp, info.value.best_r) > 1.0 + ROOT_TOL


SEED_FRACTIONS = (0.0, 0.5, 1.0, 2.0, 1e6)


def _seeded_instances():
    """Random instances with a positive root, and one whose null direction
    carries target mass, so that f has a positive floor."""
    rng = np.random.default_rng(30)
    out = [lsp for lsp in (random_line_search(rng) for _ in range(60))
           if f_eval(lsp, 0.0) > 1.0]
    floored = line_search([0.0, 1.0, 4.0], [0.5, 2.0, 3.0], 1.0)
    assert 0.0 < floored.floor < 1.0
    return out + [floored]


def _recorded_iterates(lsp, r0):
    points = []
    real = secular._f_and_slope

    def recording(lsp, r):
        points.append(r)
        return real(lsp, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secular, "_f_and_slope", recording)
        result = solve_secular(lsp, r0=r0)
    return result, points


def test_every_seed_finds_the_cold_root():
    # 1e6 times the root is a far seed whose first step may stop just above
    # the root; inf and nan are cold starts
    for lsp in _seeded_instances():
        cold = solve_secular(lsp)
        assert cold.r > 0.0
        seeds = [frac * cold.r for frac in SEED_FRACTIONS] + [np.inf, np.nan]
        for r0 in seeds:
            result = solve_secular(lsp, r0=r0)
            assert abs(f_eval(lsp, result.r) - 1.0) <= ROOT_TOL
            assert result.residual <= ROOT_TOL
            # both roots meet the residual contract, so by the mean value
            # theorem they differ by at most 2 ROOT_TOL / |f'| at the larger one
            slope = f_derivative(lsp, max(result.r, cold.r))
            assert abs(result.r - cold.r) <= (2 * ROOT_TOL + 1e-14) / abs(slope)
            np.testing.assert_allclose(np.linalg.norm(result.alpha_rotated),
                                       result.r, rtol=1e-8)


def test_seeded_iterates_rise_after_the_first_step():
    # The step from a seed far above the root cancels digits: from 1e6 times
    # the root it can land above the root by a relative 1e-10, and the loop
    # steps down once more.  That seed is checked for its root above.
    for lsp in _seeded_instances():
        root = solve_secular(lsp).r
        low = (math.hypot(*lsp.v) - lsp.lam) / max(lsp.d)
        assert 0.0 < low <= root
        for frac in SEED_FRACTIONS[:-1]:
            result, points = _recorded_iterates(lsp, frac * root)
            # a seed below (||v|| - lam) / max(d) is lifted there
            assert points[0] == max(frac * root, low)
            # a seed above the root costs one step, which lands at or below it
            assert result.newton_iters == len(points) - 1
            rest = points[1:] if frac > 1.0 else points
            assert all(a <= b for a, b in zip(rest, rest[1:]))
            assert all(f_eval(lsp, r) >= 1.0 - ROOT_TOL for r in rest)


def test_seed_at_the_root_takes_no_iteration():
    for lsp in _seeded_instances():
        cold = solve_secular(lsp)
        result = solve_secular(lsp, r0=cold.r)
        assert result.newton_iters == 0
        assert result.r == cold.r


def test_seed_keeps_the_zero_root():
    lsp = line_search([1.0, 2.0], [0.5, 0.0], 1.0)
    for r0 in (0.1, 1.0, 1e6):
        result = solve_secular(lsp, r0=r0)
        assert result.r == 0.0
        assert result.newton_iters == 0
        assert result.residual == 0.0
        np.testing.assert_array_equal(result.alpha_rotated, [0.0, 0.0])


def test_zero_seed_is_the_cold_start_bit_for_bit():
    # so is any seed that is not finite and positive
    for lsp in _seeded_instances():
        cold = solve_secular(lsp)
        for r0 in (0.0, -1.0, np.inf, np.nan):
            seeded = solve_secular(lsp, r0=r0)
            assert seeded.r == cold.r
            assert seeded.alpha_rotated.tobytes() == cold.alpha_rotated.tobytes()
            assert seeded.newton_iters == cold.newton_iters
            assert seeded.residual == cold.residual


def test_seed_without_a_usable_slope_is_dropped():
    # f and its slope underflow to 0 this far above the root: the seed is
    # discarded for a cold start
    lsp = line_search([1.0], [2.0], 1.0)
    result = solve_secular(lsp, r0=1e300)
    assert result.r == pytest.approx(1.0, abs=1e-12)
    assert result.residual <= ROOT_TOL


def test_non_finite_target_with_a_seed_raises_at_once():
    lsp = line_search([1.0, 2.0], [np.nan, 3.0], 1.0)
    with pytest.raises(gl.SecularRootError) as info:
        solve_secular(lsp, r0=1.5)
    # no Newton step was taken on a NaN value
    assert info.value.best_r == 1.5


@pytest.mark.parametrize("lam", [1e-200, 1e-300])
def test_tiny_penalty_finds_the_least_squares_root(lam):
    # f(0) = ||v||^2 / lam^2 overflows here; f at the cold start
    # (||v|| - lam) / max(d) is at most (max d / min d)^2
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = int(rng.integers(1, 8))
        d = rng.uniform(0.1, 10.0, q)
        v = rng.standard_normal(q)
        lsp = line_search(d, v, lam)
        with np.errstate(all="raise"):
            cold = solve_secular(lsp)
            seeded = solve_secular(lsp, r0=2.0 * cold.r)
        for result in (cold, seeded):
            assert result.residual <= ROOT_TOL
            # lam is below every rounding of r: the optimum is v / d
            assert result.r == pytest.approx(np.linalg.norm(v / d), rel=1e-12)
            np.testing.assert_allclose(result.alpha_rotated, v / d, rtol=1e-12)


def _reference_alpha(lsp, r):
    # the rotated optimum r v / (d r + lam), evaluated in numpy
    return r * np.asarray(lsp.v) / (np.asarray(lsp.d) * r + lsp.lam)


def test_line_search_lists_the_spectrum_and_the_target():
    for q in (1, 12, 40):
        d = np.linspace(0.5, 2.0, q)
        # a numpy scalar penalty is cast, so it does not slow the pass
        lsp = line_search(d, np.ones(q), np.float64(0.5))
        assert type(lsp.lam) is float
        assert lsp.d == d.tolist()
        assert lsp.v == np.ones(q).tolist()


@pytest.mark.parametrize("q", [1, 12, 40])
def test_python_float_pass_matches_numpy(q):
    rng = np.random.default_rng(32 + q)
    for _ in range(40):
        lsp = random_line_search(rng, q=q)
        result = solve_secular(lsp)
        assert abs(f_eval(lsp, result.r) - 1.0) <= ROOT_TOL
        assert result.residual <= ROOT_TOL
        assert type(result.alpha_rotated) is np.ndarray
        reference = _reference_alpha(lsp, result.r)
        assert np.linalg.norm(result.alpha_rotated - reference) <= (
            1e-12 * np.linalg.norm(reference))


def test_pass_on_a_floor_and_the_zero_root():
    floored = line_search([0.0, 1.0, 4.0], [0.5, 2.0, 3.0], 1.0)
    assert 0.0 < floored.floor < 1.0
    result = solve_secular(floored)
    assert abs(f_eval(floored, result.r) - 1.0) <= ROOT_TOL
    np.testing.assert_allclose(result.alpha_rotated,
                               _reference_alpha(floored, result.r), rtol=1e-12)
    result = solve_secular(line_search([1.0, 2.0], [0.5, 0.0], 1.0))
    assert result.r == 0.0
    np.testing.assert_array_equal(result.alpha_rotated, [0.0, 0.0])


def test_pass_raises_on_a_nan_target():
    lsp = line_search([1.0, 2.0], [np.nan, 3.0], 1.0)
    for r0 in (0.0, 1.5):
        with pytest.raises(gl.SecularRootError):
            solve_secular(lsp, r0=r0)


@pytest.mark.parametrize("lam", [1e-200, 1e-300])
def test_pass_solves_tiny_penalties(lam):
    # no OverflowError or ZeroDivisionError from Python floats, and no
    # overflow, division or invalid value in numpy; the seed 1e300 has no
    # usable slope, and underflows on the way to being dropped
    rng = np.random.default_rng(33)
    for _ in range(20):
        q = int(rng.integers(1, 8))
        d = rng.uniform(0.1, 10.0, q)
        v = rng.standard_normal(q)
        lsp = line_search(d, v, lam)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            results = [solve_secular(lsp, r0=r0) for r0 in (0.0, 1e300)]
        for result in results:
            assert result.residual <= ROOT_TOL
            np.testing.assert_allclose(result.alpha_rotated, v / d, rtol=1e-12)
