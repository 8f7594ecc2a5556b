"""Cached spectral decompositions of per-group Gram matrices.

Group updates need the decomposition X_k' X_k = U' diag(d) U (rows of U are
eigenvectors).  The sparse solver additionally needs decompositions of
column-subset Grams (X_k)_J' (X_k)_J.  Both are cached keyed on
(group, subset): the subset Gram does not depend on the signs attached to
the subset, so an unsigned key suffices.  The cache is unbounded and not
synchronized; run one solve per cache (or per thread).

Each spectrum is prepared once, when it enters the cache: its null
eigendirections (d_j = 0 up to round-off) are found there, and every
line search built from it reuses them.  For a target of the form
v = U A'b, any null direction carries v_j = 0 in exact arithmetic; such
coordinates are dropped when the computed v_j is at round-off scale so
that f genuinely vanishes at infinity.  Targets shifted off the row space
(the signed subproblems of the sparse solver) can put real mass on null
directions; those terms are kept and contribute a constant floor
lim_{r -> inf} f(r), which the line search carries.

The same cache holds the group Grams X_k'X_k that the spectra are taken
from, and the design Gram X'X and X'y that the sweep engine's covariance
updates read when n > p, where each X_k'X_k is a block of X'X; see
``SpectrumCache``.
"""

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .secular import LineSearchProblem

FULL = "full"

# d_j below this fraction of max(d) counts as a null direction; a null
# direction's v_j below this fraction of max|v| counts as round-off.
NULL_EIGENVALUE_REL = 1e-12
NULL_TARGET_REL = 1e-10


@dataclass
class GroupSpectrum:
    """Eigendecomposition gram = u.T @ diag(eigenvalues) @ u.

    Rows of ``u`` are eigenvectors.  Eigenvalues are clamped to be
    nonnegative; Gram matrices are positive semidefinite in exact
    arithmetic, so anything below zero is round-off.  ``null`` masks the
    null eigendirections, and is None when there are none; ``top`` is the
    largest eigenvalue.  ``d_list`` holds the eigenvalues as a list of
    Python floats, taken once, for the secular passes, which run over
    Python floats.
    """

    u: np.ndarray
    eigenvalues: np.ndarray
    null: np.ndarray | None = field(init=False, repr=False)
    top: float = field(init=False, repr=False)
    d_list: list = field(init=False, repr=False)

    def __post_init__(self):
        self.top = float(self.eigenvalues.max())
        null = self.eigenvalues <= NULL_EIGENVALUE_REL * self.top
        self.null = null if null.any() else None
        self.d_list = self.eigenvalues.tolist()

    def line_search(self, target, lam):
        """The secular line search for ``target`` (in the original basis)."""
        v = np.dot(self.u, target)
        lam = float(lam)  # a numpy scalar would slow the Python-float pass
        floor = 0.0
        if self.null is not None:
            v_tiny = NULL_TARGET_REL * np.abs(v).max()
            v[self.null & (np.abs(v) <= v_tiny)] = 0.0
            floor = float(np.sum((v[self.null] / lam) ** 2))
        return LineSearchProblem(self.d_list, v.tolist(), lam, floor, self.top)


class CacheStats(NamedTuple):
    entries: int
    hits: int
    misses: int


class SpectrumCache:
    """Lazy per-(group, subset) eigendecomposition cache for one problem.

    It also holds the group Grams X_k'X_k, each formed once and read by
    the sweep engine's gradient, the sparse solver's box check and the
    spectra here (a subset's Gram is a block of its group's); and what the
    engine's covariance mode reads: X'X, p x p, formed whole by one
    symmetric product, whose column blocks X'X_k are handed out as views,
    and X'y.  ``covariance`` (n > p) is the one shape test that picks the
    engine's mode, and with it where ``group_gram`` reads from.  Residual
    mode (p >= n) never asks for X'X.  All are built on first use from the column-major
    design, without copying it, and none counts as a spectrum hit or miss
    in ``stats``.
    """

    def __init__(self, problem):
        self.problem = problem
        self.covariance = problem.n_samples > problem.n_features
        self._store = {}
        self._hits = 0
        self._misses = 0
        self._gram = None
        self._grams = {}
        self._xty = None

    def gram(self):
        """X'X, the p x p Gram of the design, built once by one product."""
        if self._gram is None:
            design = self.problem.design
            self._gram = design.T @ design  # one symmetric product (BLAS syrk)
        return self._gram

    def gram_columns(self, k):
        """X'X_k, the p x p_k Gram columns of group ``k``: a view of ``gram()``."""
        return self.gram()[:, self.problem.group_slice(k)]

    def group_gram(self, k):
        """X_k'X_k, the p_k x p_k Gram of group ``k``, built once.

        In covariance mode it is the diagonal block of ``gram()``, a view,
        so every reader of the group's Gram sees the same numbers as the
        move's X'X_k; otherwise one product over the group's columns.
        """
        gram = self._grams.get(k)
        if gram is None:
            if self.covariance:
                cols = self.problem.group_slice(k)
                gram = self.gram()[cols, cols]
            else:
                cols = self.problem.group_matrix(k)
                gram = cols.T @ cols
            self._grams[k] = gram
        return gram

    def xty(self):
        """X'y, built once."""
        if self._xty is None:
            self._xty = self.problem.design.T @ self.problem.y
        return self._xty

    def gram_spectrum(self, k, subset=None):
        """Decomposition of the Gram of group ``k``, or of its columns ``subset``.

        ``subset`` holds local column indices within the group; None means
        the whole group.  Repeated calls return the cached object.  The
        subset is looked up as given first, and sorted and checked only
        when that misses; only sorted, valid subsets are stored.
        """
        key = (k, FULL if subset is None else tuple(subset))
        hit = self._store.get(key)
        if hit is None and subset is not None:
            subset = tuple(sorted(int(j) for j in subset))
            if len(subset) == 0:
                raise ValueError("column subset must be nonempty")
            if len(set(subset)) != len(subset):
                raise ValueError("column subset contains duplicates")
            if subset[0] < 0 or subset[-1] >= int(self.problem.group_sizes[k]):
                raise ValueError(
                    f"subset {subset} outside group of size "
                    f"{int(self.problem.group_sizes[k])}")
            key = (k, subset)
            hit = self._store.get(key)
        if hit is not None:
            self._hits += 1
            return hit
        self._misses += 1
        gram = self.group_gram(k)
        if subset is not None:
            gram = gram[np.ix_(subset, subset)]
        w, vecs = np.linalg.eigh(gram)
        top = max(float(w[-1]), 0.0)
        if float(w[0]) < -1e-8 * top:
            warnings.warn(
                f"Gram of group {k} (subset {key[1]}) has eigenvalue "
                f"{float(w[0]):.3e}; clamping to zero", RuntimeWarning)
        spectrum = GroupSpectrum(u=vecs.T, eigenvalues=np.maximum(w, 0.0))
        self._store[key] = spectrum
        return spectrum

    def stats(self):
        return CacheStats(entries=len(self._store), hits=self._hits,
                          misses=self._misses)
