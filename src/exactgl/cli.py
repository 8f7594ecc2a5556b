"""Command-line front end: solve, path, simulate, and bench subcommands.

All inputs and outputs are headerless or single-header CSV so runs are
scriptable and debuggable by eye.  Numbers are written with 17 significant
digits, enough to round-trip doubles exactly.

Exit codes: 0 success (including a solve that ran out of sweeps, which is
reported in the output rather than raised), 1 malformed input, 2 dimension
mismatch, 3 solver refusal or numerical failure.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import OracleOptions, fista_solve
from .certificates import certificate
from .errors import (DimensionMismatchError, GroupSizeGuardError,
                     SecularRootError, SignSearchError)
from .group_lasso import (DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SolveOptions,
                          solve_group_lasso, solve_path)
from .problem import (Coefficients, GroupedProblem, GroupLassoPenalty,
                      SparseGroupLassoPenalty, objective)
from .simulate import (DEFAULT_AB_GRID, DEFAULT_K_LIST, RNG_NAME, PenaltyLadder,
                       SimulationConfig, bounds_for_ladder, penalty_ladder,
                       sample_problem)
from .sparse_group_lasso import solve_sparse_group_lasso

ALGOS = ("sls", "ssls", "fista")


def _fmt(x):
    return format(float(x), ".17g")


def _read_matrix(path):
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read matrix from {path}: {exc}") from exc


def _read_vector(path):
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read vector from {path}: {exc}") from exc
    if data.shape[1] != 1:
        raise ValueError(f"{path} must hold a single column")
    return data[:, 0]


def _read_groups(path):
    try:
        sizes = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read group sizes from {path}: {exc}") from exc
    if sizes.ndim != 1:
        raise ValueError(f"{path} must hold one line of group sizes")
    return sizes


def _load_problem(args):
    return GroupedProblem(_read_vector(args.y), _read_matrix(args.x),
                          _read_groups(args.groups))


def _write_coefficients(path, beta):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "index", "value"])
        for k in range(beta.n_groups):
            for j, value in enumerate(beta.group(k)):
                writer.writerow([k + 1, j + 1, _fmt(value)])


def _penalty_from_flags(args, algo):
    has_plain = args.lam is not None
    has_sparse = args.lam1 is not None or args.lam2 is not None
    if has_plain and has_sparse:
        raise ValueError("give either --lambda or --lambda1/--lambda2, not both")
    if has_sparse and (args.lam1 is None or args.lam2 is None):
        raise ValueError("--lambda1 and --lambda2 must be given together")
    if algo == "sls":
        if not has_plain:
            raise ValueError("--algo sls needs --lambda")
        return GroupLassoPenalty(args.lam)
    if algo == "ssls":
        if not has_sparse:
            raise ValueError("--algo ssls needs --lambda1 and --lambda2")
        return SparseGroupLassoPenalty(args.lam1, args.lam2)
    if has_plain:
        return GroupLassoPenalty(args.lam)
    if has_sparse:
        return SparseGroupLassoPenalty(args.lam1, args.lam2)
    raise ValueError("no penalty given")


def cmd_solve(args):
    problem = _load_problem(args)
    penalty = _penalty_from_flags(args, args.algo)
    options = SolveOptions(tol=args.tol, max_sweeps=args.max_sweeps)
    if args.algo in ("sls", "ssls"):
        solve = solve_group_lasso if args.algo == "sls" else solve_sparse_group_lasso
        beta, trace = solve(problem, penalty, options)
        sweeps, full_sweeps = trace.sweeps, trace.full_sweeps
        newton_steps, converged = trace.newton_steps, trace.converged
    else:
        scale = 1.0 + float(np.abs(problem.design.T @ problem.y).max())
        beta, iters = fista_solve(
            problem, penalty,
            OracleOptions(tol=args.tol * scale, max_iters=args.fista_max_iters))
        # every proximal-gradient iteration touches every group
        sweeps = full_sweeps = iters
        newton_steps = 0
        converged = iters < args.fista_max_iters
    _write_coefficients(args.out, beta)
    if args.certify:
        cert = certificate(problem, penalty, beta)
        payload = {
            "w_norm": cert.w_norm,
            "objective": objective(problem, penalty, beta),
            "sweeps": sweeps,
            "full_sweeps": full_sweeps,
            "newton_steps": newton_steps,
            "converged": bool(converged),
            "bounds": {"gap": cert.gap},
        }
        with open(args.certificate_out, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
    return 0


def cmd_path(args):
    problem = _load_problem(args)
    if args.lambdas is not None:
        try:
            values = [float(tok) for tok in args.lambdas.split(",") if tok]
        except ValueError as exc:
            raise ValueError(f"bad --lambdas list: {exc}") from exc
        if not values:
            raise ValueError("--lambdas list is empty")
        ladder = PenaltyLadder(values=np.array(values))
    else:
        ladder = penalty_ladder(problem, args.ladder_length)
    options = SolveOptions(tol=args.tol, max_sweeps=args.max_sweeps)
    results = solve_path(problem, ladder.values, options)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "group", "index", "value"])
        for lam, beta, _ in results:
            for k in range(beta.n_groups):
                for j, value in enumerate(beta.group(k)):
                    writer.writerow([_fmt(lam), k + 1, j + 1, _fmt(value)])
    filled = bounds_for_ladder(ladder, [beta for _, beta, _ in results])
    with open(args.bounds_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "M"])
        for lam, bound in zip(filled.values, filled.bounds):
            writer.writerow([_fmt(lam), _fmt(bound)])
    with open(args.trace_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "sweeps", "full_sweeps", "newton_steps",
                         "converged", "wall_seconds", "objective"])
        for lam, _, trace in results:
            writer.writerow([_fmt(lam), trace.sweeps, trace.full_sweeps,
                             trace.newton_steps, int(trace.converged),
                             _fmt(trace.wall_time),
                             _fmt(trace.objective_per_sweep[-1])])
    return 0


def cmd_simulate(args):
    config = SimulationConfig(
        n_samples=args.n, n_groups=args.K, group_size=args.group_size,
        a=args.a, b=args.b, seed=args.seed)
    problem, beta0 = sample_problem(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "X.csv", problem.design, delimiter=",", fmt="%.17g")
    np.savetxt(out / "y.csv", problem.y, delimiter=",", fmt="%.17g")
    with open(out / "groups.csv", "w") as fh:
        fh.write(",".join(str(int(s)) for s in problem.group_sizes) + "\n")
    np.savetxt(out / "truth.csv", beta0.values, delimiter=",", fmt="%.17g")
    return 0


def _parse_grid(text):
    scenarios = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        entries = {}
        for token in chunk.split(","):
            key, _, value = token.partition("=")
            if not value:
                raise ValueError(f"bad grid token {token!r}")
            entries[key.strip()] = value.strip()
        try:
            scenarios.append((float(entries["a"]), float(entries["b"]),
                              int(entries["K"])))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad grid scenario {chunk!r}: {exc}") from exc
    if not scenarios:
        raise ValueError("empty benchmark grid")
    return scenarios


# no separate sparse weights in a group lasso benchmark: ssls splits lam evenly
L1_RATIO = {"sls": None, "ssls": 0.5}


def _timed_path(problem, ladder, algo, tol, fista_max_iters):
    """Wall time, total sweeps, and per-rung convergence of one path solve."""
    if algo in L1_RATIO:
        start = time.perf_counter()
        results = solve_path(problem, ladder.values, SolveOptions(tol=tol),
                             l1_ratio=L1_RATIO[algo])
        elapsed = time.perf_counter() - start
        return (elapsed, sum(tr.sweeps for _, _, tr in results),
                [tr.converged for _, _, tr in results])
    if algo == "fista":
        scale = 1.0 + float(np.abs(problem.design.T @ problem.y).max())
        options = OracleOptions(tol=tol * scale, max_iters=fista_max_iters)
        start = time.perf_counter()
        warm, iters, converged = None, 0, []
        for lam in ladder.values:
            beta, it = fista_solve(problem, GroupLassoPenalty(lam), options,
                                   initial=warm)
            warm = beta
            iters += it
            converged.append(it < fista_max_iters)
        return time.perf_counter() - start, iters, converged
    raise ValueError(f"unknown algorithm {algo!r}")


def _bench_trial(scenario, trial, args):
    a, b, K = scenario
    config = SimulationConfig(
        n_samples=args.n, n_groups=K, group_size=args.group_size, a=a, b=b,
        seed=args.seed + trial)
    problem, _ = sample_problem(config)
    ladder = penalty_ladder(problem, args.ladder_length)
    return {algo: _timed_path(problem, ladder, algo, args.tol,
                              args.fista_max_iters)
            for algo in args.algo_list}


def cmd_bench(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    args.algo_list = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    for algo in args.algo_list:
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if args.grid is not None:
        scenarios = _parse_grid(args.grid)
    else:
        scenarios = [(a, b, K) for a, b in DEFAULT_AB_GRID for K in DEFAULT_K_LIST]

    rows = []
    plot_rows = []
    for a, b, K in scenarios:
        sid = f"a{a:g}_b{b:g}_K{K}"
        trials = [_bench_trial((a, b, K), t, args) for t in range(args.trials)]
        for algo in args.algo_list:
            times = np.array([tr[algo][0] for tr in trials])
            sweeps = np.array([tr[algo][1] for tr in trials], dtype=float)
            flags = [flag for tr in trials for flag in tr[algo][2]]
            row = {
                "scenario": sid, "a": a, "b": b, "K": K, "algorithm": algo,
                "trials": args.trials,
                "mean_seconds": float(times.mean()),
                "std_seconds": float(times.std()),
                "mean_sweeps": float(sweeps.mean()),
                "converged_fraction": float(np.mean(flags)),
            }
            rows.append(row)
            plot_rows.append((a, b, K, algo, row["mean_seconds"],
                              float(np.log10(max(row["mean_seconds"], 1e-300)))))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "a", "b", "K", "algorithm", "trials",
                         "mean_seconds", "std_seconds", "mean_sweeps",
                         "converged_fraction"])
        for row in rows:
            writer.writerow([row["scenario"], _fmt(row["a"]), _fmt(row["b"]),
                             row["K"], row["algorithm"], row["trials"],
                             _fmt(row["mean_seconds"]), _fmt(row["std_seconds"]),
                             _fmt(row["mean_sweeps"]),
                             _fmt(row["converged_fraction"])])
    with open(args.plot_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "K", "algorithm", "mean_seconds",
                         "log10_mean_seconds"])
        for a, b, K, algo, mean_s, log_s in plot_rows:
            writer.writerow([_fmt(a), _fmt(b), K, algo, _fmt(mean_s),
                             _fmt(log_s)])
    with open(args.meta_out, "w") as fh:
        json.dump({"rng": RNG_NAME, "seed": args.seed, "trials": args.trials,
                   "algorithms": args.algo_list,
                   "ladder_length": args.ladder_length, "n": args.n,
                   "group_size": args.group_size}, fh, indent=2)
        fh.write("\n")
    print(f"bench: {len(scenarios)} scenarios x {args.trials} trials, "
          f"rng={RNG_NAME}, seed={args.seed}")
    return 0


def _add_data_flags(parser):
    parser.add_argument("--x", required=True, help="design matrix CSV, rows = samples")
    parser.add_argument("--y", required=True, help="response CSV, single column")
    parser.add_argument("--groups", required=True,
                        help="one line of comma-separated group sizes")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exactgl",
        description="Group lasso and sparse group lasso solvers with exact "
                    "group updates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem from CSV inputs")
    _add_data_flags(p_solve)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--lambda1", dest="lam1", type=float, default=None)
    p_solve.add_argument("--lambda2", dest="lam2", type=float, default=None)
    p_solve.add_argument("--algo", choices=ALGOS, default="sls")
    p_solve.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_solve.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS)
    p_solve.add_argument("--fista-max-iters", type=int, default=100_000)
    p_solve.add_argument("--certify", action="store_true",
                         help="also write a certificate JSON")
    p_solve.add_argument("--out", default="coefficients.csv")
    p_solve.add_argument("--certificate-out", default="certificate.json")
    p_solve.set_defaults(func=cmd_solve)

    p_path = sub.add_parser("path", help="warm-started solutions along a "
                                         "decreasing penalty ladder")
    _add_data_flags(p_path)
    p_path.add_argument("--ladder-length", type=int, default=5)
    p_path.add_argument("--lambdas", default=None,
                        help="explicit comma-separated decreasing penalties")
    p_path.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_path.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS)
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
    p_bench.add_argument("--plot-out", default="bench_plot.csv")
    p_bench.add_argument("--meta-out", default="bench_meta.json")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GroupSizeGuardError, SignSearchError, SecularRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # malformed files, flag combinations and values
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
