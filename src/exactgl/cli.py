"""Command-line front end: solve, path and simulate subcommands.

Inputs are headerless CSV; outputs are single-header CSV, plus the JSON
certificate ``solve`` writes when ``--certificate-out`` is given, so runs
are scriptable and debuggable by eye.  Numbers are written with 17
significant digits, enough to round-trip doubles exactly.  Every output
path is checked before any input is read, so a run that cannot write
all of its outputs writes none of them.

``solve`` runs the solver ``--algo`` names under one contract:
``--tol`` and ``--max-sweeps`` make its ``SolveOptions``, and its
``SolveTrace`` fills the JSON's counts and ``converged``.  For FISTA,
``--tol`` bounds the certificate's ``kkt_ratio`` and ``--max-sweeps``
caps its iterations.

Exit codes: 0 success (including a solve that ran out of sweeps, which is
reported in the output rather than raised), 1 malformed input or a file
that cannot be read or written, 2 dimension mismatch, 3 solver refusal or
numerical failure.
"""

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .baselines import fista_solve
from .certificates import certificate
from .errors import (DimensionMismatchError, GroupSizeGuardError,
                     SecularRootError, SignSearchError)
from .group_lasso import (DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SolveOptions,
                          solve_group_lasso, solve_path)
from .problem import (GroupedProblem, GroupLassoPenalty,
                      SparseGroupLassoPenalty, objective)
from .simulate import (PenaltyLadder, SimulationConfig, bounds_for_ladder,
                       penalty_ladder, sample_problem)
from .sparse_group_lasso import solve_sparse_group_lasso

SOLVERS = {"sls": solve_group_lasso, "ssls": solve_sparse_group_lasso,
           "fista": fista_solve}


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


def _check_outputs(*paths):
    """Refuse an output file whose directory is missing or not writable, or
    which is a directory, before anything is read or written."""
    for path in map(Path, paths):
        if path.is_dir():
            raise OSError(f"cannot write {path}: it is a directory")
        if not (path.parent.is_dir() and os.access(path.parent, os.W_OK)):
            raise OSError(f"cannot write {path}: {path.parent} is not a "
                          "writable directory")


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
    _check_outputs(*filter(None, (args.out, args.certificate_out)))
    problem = _load_problem(args)
    penalty = _penalty_from_flags(args)
    options = SolveOptions(tol=args.tol, max_sweeps=args.max_sweeps)
    beta, trace = SOLVERS[args.algo](problem, penalty, options)
    _write_csv(args.out, ["group", "index", "value"], _coefficient_rows(beta))
    if args.certificate_out is not None:
        cert = certificate(problem, penalty, beta)
        _write_json(args.certificate_out, {
            "w_norm": cert.w_norm, "kkt_ratio": cert.kkt_ratio,
            "objective": objective(problem, penalty, beta),
            "sweeps": trace.sweeps, "full_sweeps": trace.full_sweeps,
            "newton_steps": trace.newton_steps, "converged": trace.converged,
            "bounds": {"gap": cert.gap}})
    return 0


def cmd_path(args):
    _check_outputs(args.out, args.bounds_out, args.trace_out)
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
    out = Path(args.out_dir)
    # the nearest existing ancestor must be a directory mkdir can write into
    existing = next(p for p in (out, *out.parents) if p.exists())
    if existing == out:
        _check_outputs(*(out / f"{name}.csv"
                         for name in ("X", "y", "groups", "truth")))
    elif not (existing.is_dir() and os.access(existing, os.W_OK)):
        raise OSError(f"cannot make {out}: {existing} is not a writable directory")
    problem, beta0 = sample_problem(config)
    out.mkdir(parents=True, exist_ok=True)
    for name, data, fmt in (("X", problem.design, "%.17g"),
                            ("y", problem.y, "%.17g"),
                            ("groups", [problem.group_sizes], "%d"),
                            ("truth", beta0.values, "%.17g")):
        np.savetxt(out / f"{name}.csv", data, delimiter=",", fmt=fmt)
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
    p_solve.add_argument("--algo", choices=tuple(SOLVERS), default="sls")
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
