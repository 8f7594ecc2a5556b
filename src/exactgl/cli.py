"""Command-line front end: solve, path, simulate, and bench subcommands.

Inputs are headerless CSV; outputs are single-header CSV, plus the JSON
certificate ``solve`` writes when ``--certificate-out`` is given and the
JSON metadata of ``bench``, so runs are scriptable and debuggable by eye.
Numbers are written with 17 significant digits, enough to round-trip
doubles exactly.

Exit codes: 0 success (including a solve that ran out of sweeps, which is
reported in the output rather than raised), 1 malformed input or a file
that cannot be read or written, 2 dimension mismatch, 3 solver refusal or
numerical failure.
"""

import argparse
import csv
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import OracleOptions, fista_solve
from .certificates import certificate
from .errors import (DimensionMismatchError, GroupSizeGuardError,
                     SecularRootError, SignSearchError)
from .group_lasso import (DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SolveOptions,
                          solve_group_lasso, solve_path)
from .problem import (GroupedProblem, GroupLassoPenalty,
                      SparseGroupLassoPenalty, objective)
from .simulate import (DEFAULT_AB_GRID, DEFAULT_K_LIST, RNG_NAME, PenaltyLadder,
                       SimulationConfig, bounds_for_ladder, penalty_ladder,
                       sample_problem)
from .sparse_group_lasso import MAX_GROUP_SIZE, solve_sparse_group_lasso

ALGOS = ("sls", "ssls", "fista")
# no separate sparse weights in a group lasso benchmark: ssls splits lam evenly
L1_RATIO = {"sls": None, "ssls": 0.5}


def _read_csv(path, dtype=np.float64):
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, without numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path} holds no data")
    return data


def _load_problem(args):
    y, sizes = _read_csv(args.y), _read_csv(args.groups, np.int64)
    if y.shape[1] != 1:
        raise ValueError(f"{args.y} must hold a single column")
    if min(sizes.shape) > 1:
        raise ValueError(f"{args.groups} must hold one line of group sizes")
    if sizes.min() < 1:
        raise ValueError(f"{args.groups} holds a group size below 1")
    return GroupedProblem(y[:, 0], _read_csv(args.x), sizes.ravel())


def _write_csv(path, header, rows):
    """Write a header and then ``rows``, each as soon as it is produced.

    Floats (numpy's included) get 17 significant digits; other values,
    such as counts and names, are written as they are.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _coefficient_rows(beta, *prefix):
    """Rows (*prefix, group, index, value) with 1-based group and index."""
    for k in range(beta.n_groups):
        for j, value in enumerate(beta.group(k), 1):
            yield [*prefix, k + 1, j, value]


def _fista_options(problem, tol, max_iters):
    """FISTA stops on the certificate norm: ``tol`` scaled by 1 + max|X'y|."""
    scale = 1.0 + float(np.abs(problem.design.T @ problem.y).max())
    return OracleOptions(tol=tol * scale, max_iters=max_iters)


def _penalty_from_flags(args):
    sparse = args.lam1 is not None or args.lam2 is not None
    if sparse and (args.lam1 is None or args.lam2 is None):
        raise ValueError("--lambda1 and --lambda2 must be given together")
    if sparse == (args.lam is not None):
        raise ValueError("give either --lambda or --lambda1/--lambda2")
    if args.algo == ("sls" if sparse else "ssls"):
        needs = "--lambda" if sparse else "--lambda1 and --lambda2"
        raise ValueError(f"--algo {args.algo} needs {needs}")
    if sparse:
        return SparseGroupLassoPenalty(args.lam1, args.lam2)
    return GroupLassoPenalty(args.lam)


def cmd_solve(args):
    problem = _load_problem(args)
    penalty = _penalty_from_flags(args)
    options = SolveOptions(tol=args.tol, max_sweeps=args.max_sweeps)
    if args.algo == "fista":
        fista = _fista_options(problem, args.tol, args.fista_max_iters)
        beta, iters = fista_solve(problem, penalty, fista)
        # every proximal-gradient iteration touches every group
        counts = {"sweeps": iters, "full_sweeps": iters, "newton_steps": 0}
    else:
        solve = solve_group_lasso if args.algo == "sls" else solve_sparse_group_lasso
        beta, trace = solve(problem, penalty, options)
        counts = {"sweeps": trace.sweeps, "full_sweeps": trace.full_sweeps,
                  "newton_steps": trace.newton_steps}
    _write_csv(args.out, ["group", "index", "value"], _coefficient_rows(beta))
    if args.certificate_out is not None:
        cert = certificate(problem, penalty, beta)
        # a FISTA count equal to the cap may still have met tol on that step
        converged = (cert.w_norm <= fista.tol if args.algo == "fista"
                     else trace.converged)
        _write_json(args.certificate_out, {
            "w_norm": cert.w_norm, "objective": objective(problem, penalty, beta),
            **counts, "converged": bool(converged), "bounds": {"gap": cert.gap}})
    return 0


def cmd_path(args):
    problem = _load_problem(args)
    if args.lambdas is None:
        ladder = penalty_ladder(problem, args.ladder_length)
    else:
        try:
            values = [float(tok) for tok in args.lambdas.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad --lambdas list: {exc}") from exc
        ladder = PenaltyLadder(values=values)
    options = SolveOptions(tol=args.tol, max_sweeps=args.max_sweeps)
    results = solve_path(problem, ladder.values, options)

    _write_csv(args.out, ["lambda", "group", "index", "value"],
               (row for lam, beta, _ in results
                for row in _coefficient_rows(beta, lam)))
    filled = bounds_for_ladder(ladder, [beta for _, beta, _ in results])
    _write_csv(args.bounds_out, ["lambda", "M"],
               zip(filled.values, filled.bounds))
    _write_csv(args.trace_out,
               ["lambda", "sweeps", "full_sweeps", "newton_steps", "converged",
                "wall_seconds", "objective"],
               ([lam, tr.sweeps, tr.full_sweeps, tr.newton_steps,
                 int(tr.converged), tr.wall_time, tr.objective_per_sweep[-1]]
                for lam, _, tr in results))
    return 0


def cmd_simulate(args):
    config = SimulationConfig(
        n_samples=args.n, n_groups=args.K, group_size=args.group_size,
        a=args.a, b=args.b, seed=args.seed)
    problem, beta0 = sample_problem(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data, fmt in (("X", problem.design, "%.17g"),
                            ("y", problem.y, "%.17g"),
                            ("groups", [problem.group_sizes], "%d"),
                            ("truth", beta0.values, "%.17g")):
        np.savetxt(out / f"{name}.csv", data, delimiter=",", fmt=fmt)
    return 0


def _parse_grid(text):
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


def _timed_path(problem, ladder, algo, tol, fista_max_iters):
    """Wall time, total sweeps, and per-rung convergence of one path solve.

    Only the solves are timed: FISTA's rungs are certified afterwards.
    """
    if algo in L1_RATIO:
        start = time.perf_counter()
        results = solve_path(problem, ladder.values, SolveOptions(tol=tol),
                             l1_ratio=L1_RATIO[algo])
        elapsed = time.perf_counter() - start
        return (elapsed, sum(tr.sweeps for _, _, tr in results),
                [tr.converged for _, _, tr in results])
    options = _fista_options(problem, tol, fista_max_iters)
    penalties = [GroupLassoPenalty(lam) for lam in ladder.values]
    start = time.perf_counter()
    warm, iters, betas = None, 0, []
    for penalty in penalties:
        warm, it = fista_solve(problem, penalty, options, initial=warm)
        betas.append(warm)
        iters += it
    elapsed = time.perf_counter() - start
    return elapsed, iters, [certificate(problem, penalty, beta).w_norm <= options.tol
                            for penalty, beta in zip(penalties, betas)]


def _bench_rows(args, algos, configs):
    """One bench row per scenario and algorithm, yielded once its trials ran."""
    for config in configs:
        runs = {algo: [] for algo in algos}
        for trial in range(args.trials):
            problem, _ = sample_problem(replace(config, seed=config.seed + trial))
            ladder = penalty_ladder(problem, args.ladder_length)
            for algo in algos:
                runs[algo].append(_timed_path(problem, ladder, algo, args.tol,
                                              args.fista_max_iters))
        for algo in algos:
            times, sweeps, flags = zip(*runs[algo])
            yield [f"a{config.a:g}_b{config.b:g}_K{config.n_groups}",
                   config.a, config.b, config.n_groups, algo, args.trials,
                   np.mean(times), np.std(times), np.mean(sweeps),
                   np.mean(np.concatenate(flags))]


def cmd_bench(args):
    if min(args.trials, args.ladder_length) < 1:
        raise ValueError("--trials and --ladder-length must be at least 1")
    algos = [tok.strip() for tok in args.algos.split(",")]
    for algo in algos:
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if len(set(algos)) < len(algos):
        raise ValueError(f"--algos names an algorithm twice: {args.algos!r}")
    scenarios = (_parse_grid(args.grid) if args.grid is not None else
                 [(a, b, K) for a, b in DEFAULT_AB_GRID for K in DEFAULT_K_LIST])
    # the other flags and every scenario fail here, before any row is written
    OracleOptions(tol=args.tol, max_iters=args.fista_max_iters)
    if "ssls" in algos and args.group_size > MAX_GROUP_SIZE:
        raise GroupSizeGuardError(
            f"ssls refuses groups of {args.group_size} columns "
            f"(sign-search ceiling {MAX_GROUP_SIZE})")
    configs = [SimulationConfig(n_samples=args.n, n_groups=K,
                                group_size=args.group_size, a=a, b=b,
                                seed=args.seed)
               for a, b, K in scenarios]

    _write_csv(args.out, ["scenario", "a", "b", "K", "algorithm", "trials",
                          "mean_seconds", "std_seconds", "mean_sweeps",
                          "converged_fraction"],
               _bench_rows(args, algos, configs))
    _write_json(args.meta_out, {
        "rng": RNG_NAME, "seed": args.seed, "trials": args.trials,
        "algorithms": algos, "ladder_length": args.ladder_length, "n": args.n,
        "group_size": args.group_size})
    print(f"bench: {len(scenarios)} scenarios x {args.trials} trials, "
          f"rng={RNG_NAME}, seed={args.seed}")
    return 0


def _add_problem_flags(parser):
    parser.add_argument("--x", required=True, help="design matrix CSV, rows = samples")
    parser.add_argument("--y", required=True, help="response CSV, single column")
    parser.add_argument("--groups", required=True,
                        help="one line of comma-separated group sizes")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exactgl",
        description="Group lasso and sparse group lasso solvers with exact "
                    "group updates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem from CSV inputs")
    _add_problem_flags(p_solve)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--lambda1", dest="lam1", type=float, default=None)
    p_solve.add_argument("--lambda2", dest="lam2", type=float, default=None)
    p_solve.add_argument("--algo", choices=ALGOS, default="sls")
    p_solve.add_argument("--fista-max-iters", type=int, default=100_000)
    p_solve.add_argument("--out", default="coefficients.csv")
    p_solve.add_argument("--certificate-out", default=None,
                         help="also write a certificate JSON here")
    p_solve.set_defaults(func=cmd_solve)

    p_path = sub.add_parser("path", help="warm-started solutions along a "
                                         "decreasing penalty ladder")
    _add_problem_flags(p_path)
    p_path.add_argument("--ladder-length", type=int, default=5)
    p_path.add_argument("--lambdas", default=None,
                        help="explicit comma-separated decreasing penalties")
    p_path.add_argument("--out", default="path.csv")
    p_path.add_argument("--bounds-out", default="path_bounds.csv")
    p_path.add_argument("--trace-out", default="path_trace.csv")
    p_path.set_defaults(func=cmd_path)

    p_sim = sub.add_parser("simulate", help="write a simulated dataset as CSV")
    p_sim.add_argument("--n", type=int, default=50)
    p_sim.add_argument("--K", type=int, default=10)
    p_sim.add_argument("--group-size", type=int, default=10)
    p_sim.add_argument("--a", type=float, required=True)
    p_sim.add_argument("--b", type=float, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="timed path solves over a scenario grid")
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--grid", default=None,
                         help="semicolon-separated scenarios 'a=0.5,b=0.2,K=10'; "
                              "default is the full 9 x {10,20,40,80} grid")
    p_bench.add_argument("--algos", default="sls,fista")
    p_bench.add_argument("--ladder-length", type=int, default=5)
    p_bench.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_bench.add_argument("--n", type=int, default=50)
    p_bench.add_argument("--group-size", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--fista-max-iters", type=int, default=100_000)
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.add_argument("--meta-out", default="bench_meta.json")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, GroupSizeGuardError, SignSearchError,
            SecularRootError) as exc:
        # 1 malformed or unreadable inputs, unwritable outputs, bad flags and
        # values; 2 shapes; 3 solver
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DimensionMismatchError):
            return 2
        return 1 if isinstance(exc, (ValueError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
