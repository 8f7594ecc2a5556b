"""Cached spectral decompositions of per-group Gram matrices.

Group updates need the decomposition X_k' X_k = U' diag(d) U (rows of U are
eigenvectors).  The sparse solver additionally needs decompositions of
column-subset Grams (X_k)_J' (X_k)_J.  Both are cached keyed on
(group, subset): the subset Gram does not depend on the signs attached to
the subset, so an unsigned key suffices.  The cache is unbounded and not
synchronized; run one solve per cache (or per thread).
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FULL = "full"


@dataclass
class GroupSpectrum:
    """Eigendecomposition gram = u.T @ diag(eigenvalues) @ u.

    Rows of ``u`` are eigenvectors.  Eigenvalues are clamped to be
    nonnegative; Gram matrices are positive semidefinite in exact
    arithmetic, so anything below zero is round-off.
    """

    u: np.ndarray
    eigenvalues: np.ndarray


class CacheStats(NamedTuple):
    entries: int
    hits: int
    misses: int


class SpectrumCache:
    """Lazy per-(group, subset) eigendecomposition cache for one problem."""

    def __init__(self, problem):
        self.problem = problem
        self._store = {}
        self._hits = 0
        self._misses = 0

    def gram_spectrum(self, k, subset=None):
        """Decomposition of the Gram of group ``k``, or of its columns ``subset``.

        ``subset`` holds local column indices within the group; None means
        the whole group.  Repeated calls return the cached object.
        """
        if subset is None:
            key = (k, FULL)
        else:
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
        cols = self.problem.group_matrix(k)
        if subset is not None:
            cols = cols[:, list(subset)]
        gram = cols.T @ cols
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
