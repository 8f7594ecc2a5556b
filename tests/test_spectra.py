import numpy as np
import pytest

import exactgl as gl
from helpers import random_problem


def _check_invariants(spectrum, gram):
    q = gram.shape[0]
    # rows of u orthonormal
    assert np.max(np.abs(spectrum.u @ spectrum.u.T - np.eye(q))) <= 1e-10
    rebuilt = spectrum.u.T @ np.diag(spectrum.eigenvalues) @ spectrum.u
    denom = max(np.linalg.norm(gram), 1e-30)
    assert np.linalg.norm(rebuilt - gram) / denom <= 1e-8
    assert np.all(spectrum.eigenvalues >= 0.0)


def _check_full_rank_line_search(spectrum, target):
    # no null direction: the rotated target passes through untouched
    lsp = spectrum.line_search(target, 0.7)
    assert np.asarray(lsp.v).tobytes() == (spectrum.u @ target).tobytes()
    assert lsp.d is spectrum.d_list
    assert lsp.lam == 0.7
    assert lsp.floor == 0.0


def test_identity_gram():
    problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
    cache = gl.SpectrumCache(problem)
    spectrum = cache.gram_spectrum(0)
    np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 1.0], atol=1e-12)
    _check_invariants(spectrum, np.eye(2))
    assert spectrum.null is None
    _check_full_rank_line_search(spectrum, np.array([0.3, -2.0]))


def test_duplicated_column_gram_eigenvalues():
    # Gram [[1,1],[1,1]]: characteristic polynomial gives eigenvalues {2, 0}
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    problem = gl.GroupedProblem([1.0, 0.0], X, [2])
    cache = gl.SpectrumCache(problem)
    spectrum = cache.gram_spectrum(0)
    np.testing.assert_allclose(np.sort(spectrum.eigenvalues), [0.0, 2.0],
                               atol=1e-12)
    _check_invariants(spectrum, X.T @ X)
    # the null mask picks out exactly the zero eigenvalue
    np.testing.assert_array_equal(spectrum.null,
                                  spectrum.eigenvalues < 1.0)
    null = spectrum.null
    lam = 0.5
    # real mass on the null direction (1, -1)/sqrt(2) is kept as the floor
    lsp = spectrum.line_search(np.array([1.0, 0.0]), lam)
    assert lsp.floor == (np.asarray(lsp.v)[null][0] / lam) ** 2
    assert lsp.floor == pytest.approx(0.5 / lam ** 2, rel=1e-12)
    # mass at round-off scale is zeroed, so f vanishes at infinity
    rotated = np.where(null, 1e-17, 1.0)
    lsp = spectrum.line_search(spectrum.u.T @ rotated, lam)
    assert np.all(np.asarray(lsp.v)[null] == 0.0)
    assert lsp.floor == 0.0


def test_cache_contract_and_stats():
    rng = np.random.default_rng(0)
    problem = random_problem(rng, sizes=[3, 2])
    cache = gl.SpectrumCache(problem)
    assert cache.stats() == (0, 0, 0)
    first = cache.gram_spectrum(0)
    assert cache.stats() == (1, 0, 1)
    again = cache.gram_spectrum(0)
    assert again is first
    assert cache.stats() == (1, 1, 1)
    sub = cache.gram_spectrum(0, subset=(2, 0))
    assert cache.gram_spectrum(0, subset=(0, 2)) is sub  # key sorts the subset
    assert cache.stats().entries == 2


def test_subset_lookup_stores_only_sorted_valid_keys():
    rng = np.random.default_rng(6)
    problem = random_problem(rng, sizes=[3, 2])
    cache = gl.SpectrumCache(problem)
    sub = cache.gram_spectrum(0, subset=(0, 2))
    assert cache.gram_spectrum(0, subset=(2, 0)) is sub
    assert cache.gram_spectrum(0, subset=np.array([0, 2])) is sub
    assert cache.stats() == (1, 2, 1)
    # a miss on the subset as given still validates it, after hits
    for bad in ((), (2, 2), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            cache.gram_spectrum(0, subset=bad)
    assert cache.stats() == (1, 2, 1)


def test_subset_matches_explicit_slice():
    rng = np.random.default_rng(4)
    problem = random_problem(rng, sizes=[4, 3])
    cache = gl.SpectrumCache(problem)
    for k, subset in ((0, (1, 3)), (1, (0, 2)), (0, (2,))):
        spectrum = cache.gram_spectrum(k, subset=subset)
        cols = problem.group_matrix(k)[:, list(subset)]
        _check_invariants(spectrum, cols.T @ cols)
        explicit = np.linalg.eigvalsh(cols.T @ cols)
        np.testing.assert_allclose(np.sort(spectrum.eigenvalues),
                                   np.sort(np.maximum(explicit, 0)), atol=1e-10)


def test_subset_validation():
    rng = np.random.default_rng(5)
    problem = random_problem(rng, sizes=[3])
    cache = gl.SpectrumCache(problem)
    with pytest.raises(ValueError):
        cache.gram_spectrum(0, subset=())
    with pytest.raises(ValueError):
        cache.gram_spectrum(0, subset=(0, 0))
    with pytest.raises(ValueError):
        cache.gram_spectrum(0, subset=(3,))


def test_trace_bound_on_eigenvalues():
    rng = np.random.default_rng(6)
    for _ in range(10):
        problem = random_problem(rng)
        cache = gl.SpectrumCache(problem)
        for k in range(problem.n_groups):
            spectrum = cache.gram_spectrum(k)
            frob2 = np.linalg.norm(problem.group_matrix(k)) ** 2
            assert spectrum.eigenvalues.max() <= frob2 * (1 + 1e-12) + 1e-12
            # random Grams with n > p have full rank
            assert spectrum.null is None
            _check_full_rank_line_search(
                spectrum, np.linspace(-1.0, 2.0, spectrum.eigenvalues.size))


def test_rank_deficient_gram_is_clamped_nonnegative():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((6, 2))
    X = np.hstack([base, base @ rng.standard_normal((2, 3))])  # rank 2, 5 cols
    problem = gl.GroupedProblem(rng.standard_normal(6), X, [5])
    spectrum = gl.SpectrumCache(problem).gram_spectrum(0)
    assert np.all(spectrum.eigenvalues >= 0.0)
    _check_invariants(spectrum, X.T @ X)
    # eigh sorts ascending: the three null directions come first
    np.testing.assert_array_equal(spectrum.null, [True] * 3 + [False] * 2)
