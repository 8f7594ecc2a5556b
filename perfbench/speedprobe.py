"""A fixed reference task that tracks how fast the host runs right now.

On a shared host the same code runs up to ~40% faster or slower from one
minute to the next, for reasons outside this process: a fixed Python
loop's per-second median drifts by ±20% over a few minutes. That drift
moves every workload together and is far wider than any bound worth
gating on. So the benchmark times this task between path solves, about
once per ``PROBE_EVERY_S`` of wall time. It scales its end-to-end times
by ``REFERENCE_S / median(probe seconds)``. The result reads as seconds
at the host speed where the probe takes ``REFERENCE_S``.

The task mixes the same kinds of work as the solver: a Python loop,
small matrix-vector products and norms, an occasional 10 x 10
eigendecomposition and a tall BLAS product. It uses numpy alone, never
exactgl, so no change to the solver can move it.
"""

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0125      # probe seconds on a 2-vCPU Xeon host, numpy 2.4, one BLAS thread
PROBE_EVERY_S = 0.5
ITERATIONS = 1500


class SpeedProbe:
    """Times the reference task and turns its median into a scale factor."""

    def __init__(self):
        rng = np.random.default_rng(20100316)
        self._small = rng.standard_normal((50, 10))
        self._vec = rng.standard_normal(50)
        self._gram = self._small.T @ self._small
        self._tall = np.asfortranarray(rng.standard_normal((4000, 10)))
        self._tall_vec = rng.standard_normal(4000)
        self.samples = []
        self._last = None

    def sample(self):
        start = perf_counter()
        acc = 0.0
        for i in range(ITERATIONS):
            g = self._small.T @ self._vec
            acc += float(np.linalg.norm(g)) + sum(j * j for j in range(30))
            if i % 50 == 0:
                acc += float(np.linalg.eigh(self._gram)[0][0])
                acc += float(np.linalg.norm(self._tall.T @ self._tall_vec))
        self.samples.append(perf_counter() - start)
        return acc

    def catch_up(self):
        """Sample once per ``PROBE_EVERY_S`` elapsed since the last call
        (once on the first call), so samples spread over the whole run."""
        now = perf_counter()
        due = 1 if self._last is None else int((now - self._last) / PROBE_EVERY_S)
        if due:
            for _ in range(due):
                self.sample()
            self._last = perf_counter()

    def factor(self):
        """Multiply a measured time by this to read it at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
