"""Time exact block descent against an inexact block step and FISTA.

    python3 tools/paper_compare.py --trials 3 --algos sls,inexact,fista \\
        --out paper_compare.csv --meta-out BENCH_paper.json

The paper claims its exact group update is often faster than gradient
projection on the whole vector and than block updates with an inexact
line search.  This tool times cold warm-started paths along
``lambda_max * 2^-i`` (i = 1..--ladder-length) on simulated cells of the
(a, b, K) grid, ``--trials`` datasets per cell (seeds --seed, --seed + 1,
...), with every group lasso solver stopped at the same accuracy:

* ``sls``, the exact solver, runs every path at ``--tol``; each rung's
  KKT ratio ``w_norm / lam``, floored as below, is the target of the
  other solvers.  It runs even when --algos does not name it, and is then
  not reported.
* ``inexact``: one proximal step per group visit,
  ``b_k <- prox(b_k + X_k'r / L_k, lam / L_k)`` with ``L_k`` the largest
  eigenvalue of ``X_k'X_k``, in the exact solvers' sweep engine and with
  its stop.  A path that misses a rung's target is rerun at a ``tol`` ten
  times smaller; only the last run is timed, and a path that still misses
  at ``tol = 1e-14`` is unmatched.
* ``fista``: warm-started FISTA, stopped on each rung once its KKT
  ratio reaches the target, within --fista-max-iters iterations.
* ``ssls``: the sparse solver with ``lam`` split evenly (l1_ratio 0.5).
  It solves another objective, so it is timed but never matched or
  ranked; groups above its sign-search ceiling are refused.

A rung the exact update solves to rounding, as it does when a single
group is nonzero, reads a KKT ratio near 1e-15, below what the
certificate can resolve, so each target is floored at the certificate's
own rounding at the exact solution b (``kkt_floor``).  The certificate
computes r = y - X b and then X'r.  By the matrix-vector bounds of
Higham (2002, section 3.5), fl(X b) is off by at most gamma_p |X||b|
and the subtraction adds u |r|, so |fl(r) - r| <= gamma_{p+1} (|y| +
|X||b|); the product X'fl(r) adds gamma_n |X|'|fl(r)|.  With gamma_j +
gamma_k + gamma_j gamma_k <= gamma_{j+k} (Higham, Lemma 3.3) the
computed X'r is off by at most e = gamma_{n+p+1} |X|'(|y| + |X||b|)
elementwise, where gamma_m = m u / (1 - m u) and u = eps / 2.  That
error passes into w no larger (a zero group's shrink of X'r is
1-Lipschitz), so a ratio below ||e|| / lam says nothing more, and the
target is max(KKT ratio, ||e|| / lam).

--out gets one CSV row per cell and algorithm as soon as its trials ran:
mean and spread of the seconds, mean sweeps (FISTA: iterations) per path
and the fraction of rungs that stopped on their own rule.  --meta-out
gets a JSON file with the settings, the environment and, per cell and
solver, every trial's seconds and sweeps, the largest KKT ratio and
whether it matched.  A cell's winner is the solver, among those matched
on every trial, that is faster than each other one on every trial, the
trials paired by seed; with no such solver the cell reads "unresolved",
and with none matched, "unmatched".  Every flag is checked, and every
output path, before anything is solved or written.  Exit codes: 0
success, 1 malformed flag or unwritable output, 3 the ssls refusal.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread, as perfbench runs, set before numpy is first imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from exactgl.baselines import fista_solve, prox_group_norm  # noqa: E402
from exactgl.certificates import certificate  # noqa: E402
from exactgl.cli import _check_outputs, _write_csv, _write_json  # noqa: E402
from exactgl.errors import GroupSizeGuardError  # noqa: E402
from exactgl.group_lasso import (DEFAULT_TOL, ZEROS, SolveOptions,  # noqa: E402
                                 _sweep_engine, solve_path)
from exactgl.problem import (GroupLassoPenalty, SparseGroupLassoPenalty,  # noqa: E402
                             gamma, vector_norm)
from exactgl.simulate import SimulationConfig, penalty_ladder, sample_problem  # noqa: E402
from exactgl.sparse_group_lasso import MAX_GROUP_SIZE  # noqa: E402
from exactgl.spectra import SpectrumCache  # noqa: E402
from perfbench.envinfo import collect as environment  # noqa: E402

ALGOS = ("sls", "ssls", "inexact", "fista")
RANKED = ("sls", "inexact", "fista")  # the solvers of the group lasso
RNG_NAME = "PCG64"
AB_GRID = ((0.2, 0.2), (0.2, 0.5), (0.2, 0.8), (0.5, 0.2), (0.5, 0.5),
           (0.5, 0.8), (0.8, 0.2), (0.8, 0.5), (0.8, 0.8))
K_LIST = (10, 20, 40, 80)
MATCH_TOL_FLOOR = 1e-14  # the inexact step's smallest tol


def parse_grid(text):
    """Cells (a, b, K) from 'a=0.5,b=0.2,K=10;a=0.8,b=0.8,K=40'."""
    scenarios = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            entries = dict(map(str.strip, tok.split("="))
                           for tok in chunk.split(","))
            scenarios.append((float(entries["a"]), float(entries["b"]),
                              int(entries["K"])))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad grid scenario {chunk!r}: {exc}") from exc
    if not scenarios:
        raise ValueError("empty benchmark grid")
    return scenarios


def inexact_solve(problem, penalty, options, spectra):
    """The inexact block step in the exact solvers' sweep engine.

    Each b_k is tracked from the step's own returns, which holds only in
    the engine's residual mode: covariance mode (n > p) also moves groups
    in Newton bursts, so it is refused.  A zero step returns the engine's
    shared ``ZEROS[p_k]``, as the exact updates do.
    """
    if spectra.covariance:
        raise ValueError("the inexact step needs p >= n")
    start = options.initial
    last = [ZEROS[int(size)] if start is None or not start.group(k).any()
            else start.group(k).copy() for k, size in enumerate(problem.group_sizes)]
    lam = penalty.lam

    def update_one(k, g):
        bk = last[k]
        zero = ZEROS[g.shape[0]]
        if bk is zero:
            if vector_norm(g) <= lam:
                return zero  # the prox of g / L_k is zero: no spectrum needed
            xtr = g
        else:
            xtr = g - np.dot(spectra.group_gram(k), bk)
        top = spectra.gram_spectrum(k).top
        new = prox_group_norm(bk + xtr / top, 1.0 / top, lam)
        last[k] = new = new if new.any() else zero
        return new

    return _sweep_engine(problem, penalty, update_one, options, None, spectra)


def kkt_floor(problem, beta, lam):
    """||e|| / lam, the KKT ratio that the certificate's rounding of X'r
    alone can produce at ``beta``; see the module docstring."""
    design = np.abs(problem.design)
    e = gamma(problem.n_samples + problem.n_features + 1) * (
        design.T @ (np.abs(problem.y) + design @ np.abs(beta.values)))
    return vector_norm(e) / lam


def _inexact_path(problem, lambdas, tol):
    spectra, warm, out = SpectrumCache(problem), None, []
    for lam in lambdas:
        beta, trace = inexact_solve(problem, GroupLassoPenalty(lam),
                                    SolveOptions(tol=tol, initial=warm), spectra)
        out.append((beta, trace.sweeps, trace.converged))
        warm = beta
    return out


def _fista_path(problem, lambdas, targets, max_iters):
    warm, out = None, []
    for lam, target in zip(lambdas, targets):
        warm, trace = fista_solve(problem, GroupLassoPenalty(lam), SolveOptions(
            tol=target, max_sweeps=max_iters, initial=warm))
        out.append((warm, trace.sweeps, trace.converged))
    return out


@dataclass
class Run:
    """One timed path: seconds, total sweeps (FISTA: iterations), per-rung
    convergence and KKT ratios, and whether every rung met its target
    (None for ssls)."""

    seconds: float
    sweeps: int
    converged: list
    kkt: list
    matched: bool | None


def _timed(solve):
    start = time.perf_counter()
    out = solve()
    return time.perf_counter() - start, out


def _run(problem, penalties, seconds, out, targets=None):
    kkt = [certificate(problem, pen, beta).kkt_ratio
           for pen, (beta, _, _) in zip(penalties, out)]
    matched = None if targets is None else all(
        r <= t for r, t in zip(kkt, targets))
    return Run(seconds, sum(s for _, s, _ in out), [ok for _, _, ok in out],
               kkt, matched)


def compare_path(problem, lambdas, algos, tol, fista_max_iters):
    """Time one path per algorithm at matched accuracy: {algo: Run}."""
    penalties = [GroupLassoPenalty(lam) for lam in lambdas]

    def exact(l1_ratio):
        return [(beta, trace.sweeps, trace.converged) for _, beta, trace in
                solve_path(problem, lambdas, SolveOptions(tol=tol),
                           l1_ratio=l1_ratio)]

    seconds, path = _timed(lambda: exact(None))
    runs = {"sls": _run(problem, penalties, seconds, path)}
    runs["sls"].matched = True  # the reference meets its own targets
    targets = [max(r, kkt_floor(problem, beta, lam))
               for r, (beta, _, _), lam in zip(runs["sls"].kkt, path, lambdas)]
    if "ssls" in algos:
        sparse = [SparseGroupLassoPenalty(lam / 2, lam / 2) for lam in lambdas]
        runs["ssls"] = _run(problem, sparse, *_timed(lambda: exact(0.5)))
    if "inexact" in algos:
        step = tol
        while True:
            run = _run(problem, penalties,
                       *_timed(lambda: _inexact_path(problem, lambdas, step)),
                       targets)
            # 1.5: the divisions by ten round around the floor
            if run.matched or step <= 1.5 * MATCH_TOL_FLOOR:
                break
            step /= 10
        runs["inexact"] = run
    if "fista" in algos:
        runs["fista"] = _run(problem, penalties, *_timed(
            lambda: _fista_path(problem, lambdas, targets, fista_max_iters)),
            targets)
    return {algo: runs[algo] for algo in algos}


def _cell_record(config, algos, trials):
    """The JSON record of one cell from ``trials``, a list of {algo: Run}."""
    solvers = {}
    for algo in algos:
        runs = [t[algo] for t in trials]
        seconds, sweeps = [r.seconds for r in runs], [r.sweeps for r in runs]
        solvers[algo] = {
            "seconds": seconds, "mean_seconds": float(np.mean(seconds)),
            "std_seconds": float(np.std(seconds)),
            "sweeps": sweeps, "mean_sweeps": float(np.mean(sweeps)),
            "kkt_ratio_max": max(max(r.kkt) for r in runs),
            "converged_fraction": float(np.mean([r.converged for r in runs])),
            "matched": None if algo == "ssls" else all(r.matched for r in runs)}
    ranked = [a for a in algos if a in RANKED and solvers[a]["matched"]]

    def wins(algo):
        # trials are paired by seed: faster than each rival on every one
        return all(t[algo].seconds < t[rival].seconds
                   for t in trials for rival in ranked if rival != algo)

    winner = next(filter(wins, ranked), "unresolved" if ranked else "unmatched")
    return {"scenario": f"a{config.a:g}_b{config.b:g}_K{config.n_groups}",
            "a": config.a, "b": config.b, "K": config.n_groups,
            "winner": winner, "solvers": solvers}


def _cells(args, algos, configs, records):
    """One CSV row per cell and algorithm, yielded once the cell's trials
    ran; each cell's JSON record is appended to ``records``."""
    for config in configs:
        trials = []
        for trial in range(args.trials):
            problem, _ = sample_problem(replace(config, seed=config.seed + trial))
            ladder = penalty_ladder(problem, args.ladder_length)
            trials.append(compare_path(problem, ladder.values, algos, args.tol,
                                       args.fista_max_iters))
        record = _cell_record(config, algos, trials)
        records.append(record)
        for algo, s in record["solvers"].items():
            yield [record["scenario"], config.a, config.b, config.n_groups, algo,
                   args.trials, s["mean_seconds"], s["std_seconds"],
                   s["mean_sweeps"], s["converged_fraction"]]


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--grid", default=None,
                        help="semicolon-separated scenarios 'a=0.5,b=0.2,K=10'; "
                             "default is the full 9 x {10,20,40,80} grid")
    parser.add_argument("--algos", default="sls,inexact,fista",
                        help=f"comma-separated, from {','.join(ALGOS)}")
    parser.add_argument("--ladder-length", type=int, default=5)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--group-size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fista-max-iters", type=int, default=100_000)
    parser.add_argument("--out", default="paper_compare.csv")
    parser.add_argument("--meta-out", default="paper_compare.json")
    return parser


def run(args):
    if min(args.trials, args.ladder_length) < 1:
        raise ValueError("--trials and --ladder-length must be at least 1")
    algos = [tok.strip() for tok in args.algos.split(",")]
    for algo in algos:
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if len(set(algos)) < len(algos):
        raise ValueError(f"--algos names an algorithm twice: {args.algos!r}")
    scenarios = (parse_grid(args.grid) if args.grid is not None else
                 [(a, b, K) for a, b in AB_GRID for K in K_LIST])
    # the other flags and every scenario fail here, before any row is written
    SolveOptions(tol=args.tol, max_sweeps=args.fista_max_iters)
    configs = [SimulationConfig(n_samples=args.n, n_groups=K,
                                group_size=args.group_size, a=a, b=b,
                                seed=args.seed)
               for a, b, K in scenarios]
    if "inexact" in algos and any(args.n > c.n_groups * c.group_size
                                  for c in configs):
        raise ValueError("inexact needs p >= n in every cell")
    if "ssls" in algos and args.group_size > MAX_GROUP_SIZE:
        raise GroupSizeGuardError(
            f"ssls refuses groups of {args.group_size} columns "
            f"(sign-search ceiling {MAX_GROUP_SIZE})")
    _check_outputs(args.out, args.meta_out)

    records = []
    _write_csv(args.out, ["scenario", "a", "b", "K", "algorithm", "trials",
                          "mean_seconds", "std_seconds", "mean_sweeps",
                          "converged_fraction"],
               _cells(args, algos, configs, records))
    _write_json(args.meta_out, {
        "rng": RNG_NAME, "seed": args.seed, "trials": args.trials,
        "algorithms": algos, "ladder_length": args.ladder_length, "n": args.n,
        "group_size": args.group_size, "tol": args.tol,
        "fista_max_iters": args.fista_max_iters, "env": environment(),
        "cells": records})
    print(f"paper_compare: {len(scenarios)} scenarios x {args.trials} trials, "
          f"rng={RNG_NAME}, seed={args.seed}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError, GroupSizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GroupSizeGuardError) else 1


if __name__ == "__main__":
    sys.exit(main())
