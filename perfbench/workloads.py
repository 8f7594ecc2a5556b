"""The four benchmark workloads and the inputs they generate.

Each workload is a fixed set of simulated problems (data seeds included),
each solved as one warm-started path along ``lambda_max * 2^-i``.  The
run's ``--seed`` picks a row order for every problem: permuting samples
leaves the objective, its optimum and the work a solver does unchanged,
so different seeds give different inputs of the same difficulty.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from exactgl import problem as problem_mod
from exactgl import simulate


@dataclass(frozen=True)
class PathSpec:
    """One simulated problem and the ladder its path walks."""

    n: int
    K: int
    group_size: int
    a: float
    b: float
    data_seed: int
    rungs: int
    sparse: bool = False

    def config(self):
        return simulate.SimulationConfig(
            n_samples=self.n, n_groups=self.K, group_size=self.group_size,
            a=self.a, b=self.b, seed=self.data_seed)

    def describe(self):
        return {"n": self.n, "K": self.K, "group_size": self.group_size,
                "a": self.a, "b": self.b, "data_seed": self.data_seed,
                "rungs": self.rungs,
                "solver": "sparse_group_lasso" if self.sparse else "group_lasso"}


# Wrapped call sites (see tracing.SITES) that each kind of path must reach;
# a traced run that never calls one of them fails instead of reporting a
# zero-cost layer.
PLAIN_SITES = ("group_lasso.group_update", "group_lasso.solve_secular",
               "SpectrumCache.gram_spectrum")
SPARSE_SITES = ("sparse_group_lasso.zero_check",
                "sparse_group_lasso.signed_subproblem",
                "sparse_group_lasso.solve_secular",
                "SpectrumCache.gram_spectrum")
COMMON_SITES = ("simulate.sample_problem", "simulate.lambda_max",
                "certificates.certificate", "certificates.accuracy_bounds")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    paths: tuple

    def required_sites(self):
        sites = set(COMMON_SITES)
        if any(not p.sparse for p in self.paths):
            sites.update(PLAIN_SITES)
        if any(p.sparse for p in self.paths):
            sites.update(SPARSE_SITES)
        return sorted(sites)


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper-grid",
        "the paper's 36-cell (a, b, K) grid of short cold 5-rung paths; "
        "sweep overhead and secular solves share the time",
        tuple(PathSpec(50, K, 10, a, b, 0, 5)
              for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8)
              for K in (10, 20, 40, 80))),
    Workload(
        "deep-ladder",
        "p >> n ladder to lambda_max * 2^-10 where sweeps explode; "
        "the secular Newton solve takes most of the time",
        (PathSpec(50, 40, 10, 0.8, 0.2, 1, 10),)),
    Workload(
        "sparse-wide",
        "sparse solver on groups of 12; the only workload with sign search "
        "and subset spectra, one of five paths shifts support",
        tuple(PathSpec(50, 10, 12, 0.8, 0.2, s, 6, sparse=True)
              for s in range(5))),
    Workload(
        "tall",
        "n >> p (10,000 x 400); BLAS gradients and residual refreshes in "
        "the sweep dominate, not the secular solve",
        (PathSpec(10_000, 40, 10, 0.5, 0.8, 0, 10),)),
)}


@dataclass
class Instance:
    """A generated problem, its penalty ladder and the set-up time it took."""

    index: int
    spec: PathSpec
    problem: object
    lambdas: np.ndarray
    setup_s: float


def build_instance(spec, seed, index):
    """Generate path ``index`` of a workload for run seed ``seed``.

    Timed set-up is ``sample_problem`` plus ``penalty_ladder`` (which
    computes ``lambda_max``); the seeded row permutation between them is
    input generation and stays out of the timing.
    """
    t0 = perf_counter()
    sampled, _ = simulate.sample_problem(spec.config())
    t1 = perf_counter()
    order = np.random.default_rng([seed, index]).permutation(sampled.n_samples)
    problem = problem_mod.GroupedProblem(
        sampled.y[order], sampled.design[order], sampled.group_sizes)
    t2 = perf_counter()
    ladder = simulate.penalty_ladder(problem, spec.rungs)
    t3 = perf_counter()
    return Instance(index, spec, problem, ladder.values, (t1 - t0) + (t3 - t2))


def build_inputs(workload, seed):
    """All instances of ``workload`` for run seed ``seed``, in path order."""
    return [build_instance(spec, seed, i) for i, spec in enumerate(workload.paths)]
