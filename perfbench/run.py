"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload deep-ladder --seed 0 --seconds 30 --trace 0

Run from the repository root; the solver is imported from ``src/`` of
the same checkout.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  Per-path detail, the environment and
(when traced) the spans are written under ``perfbench/results/``.
Exit codes: 0 with a result line, 2 when the checkout has no solver to
benchmark, 3 when a traced run cannot vouch for its numbers.
"""

import os

# Pin BLAS to one thread in this process before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def _import_solver():
    """Import exactgl from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import exactgl
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import exactgl from {ROOT / 'src'}: {exc}")
    where = Path(exactgl.__file__).resolve().parent
    if where != ROOT / "src" / "exactgl":
        raise SystemExit(f"perfbench: exactgl was imported from {where}, "
                         f"not from this checkout's src/")


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _write_spans(path, spans):
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index",) + spans[0]._fields if spans else ("index",))
        for i, span in enumerate(spans):
            writer.writerow((i,) + tuple(span))


def main(argv=None):
    try:
        _import_solver()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench import envinfo, harness, tracing, workloads

    args = _parse(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    env = envinfo.collect()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    except tracing.TraceIntegrityError as exc:
        print(f"perfbench: trace integrity check failed: {exc}", file=sys.stderr)
        return 3

    for row in result.detail:
        secs = ", ".join(f"{s:.4f}" for s in row["seconds"])
        extra = (f" candidates={row['sign_candidates']}"
                 f"/{row['nonzero_sparse_updates']}" if "sign_candidates" in row else "")
        print(f"path {row['path']:2d} K={row['K']} a={row['a']} b={row['b']} "
              f"n={row['n']} seed={row['data_seed']} {row['solver']} "
              f"sweeps={row['sweeps_per_rung']} s=[{secs}]{extra}")
    for message in result.errors:
        print(f"perfbench: {message}", file=sys.stderr)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": result.rounds, "env": env,
              **result.summary(), "measured": result.measured, "errors": result.errors,
              "paths": result.detail}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        _write_spans(RESULTS / f"{stem}-spans.csv.gz", result.spans)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
