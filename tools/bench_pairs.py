"""Run perfbench in alternating pairs on two checkouts and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads paper-grid,deep-ladder --seeds 41-50 --seconds 30 \\
        --out BENCH_label.json

Each checkout runs ``python3 perfbench/run.py`` from its own root, so
each side benchmarks its own ``src/`` with its own ``perfbench/``.  For
every workload and seed one untraced run is made per side, and the side
that runs first alternates from pair to pair.  Then each side makes one
traced run at seed 7.  The file holds the environment, the method, every
run's end-to-end values as perfbench printed them, each side's median,
the parent's quartiles and interquartile range, the pairs in which the
change read lower, the rungs each run attempted (so the passes it
completed) and the bytes of coefficient copies that perfbench keeps per
pass.  It also holds, per workload and side, one sha256 per rung of
``beta.values.tobytes()`` from ``perfbench.harness.solve`` at seed 7,
computed in each checkout in a subprocess with BLAS pinned to one
thread, and ``same_coefficients``, true when both sides hashed every
rung alike.  The tool adds no bound, check or adjusted metric of its own.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SEED = 7
FLOAT_BYTES = 8
# the threads perfbench/run.py pins before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Run from a checkout's root with arguments WORKLOAD SEED: prints the sha256
# of every rung's coefficients, path by path, as a JSON list.
HASH_SCRIPT = """
import hashlib, json, sys
sys.path[:0] = ["src", "."]
from perfbench import harness, workloads
instances = workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(json.dumps([hashlib.sha256(beta.values.tobytes()).hexdigest()
                  for inst in instances for beta, _ in harness.solve(inst)]))
"""


def pair_order(index):
    """The sides of pair ``index`` in the order they run: the parent first
    in even pairs, the change first in odd ones."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def parse_seeds(text):
    """Seeds from '41-50' or '1,5,9' (or a mix of both).  A list that is
    empty or malformed, holds a reversed range or names a seed twice cannot
    be paired, and raises ValueError."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise ValueError(f"malformed seed list {text!r}") from None
        if last < first:
            raise ValueError(f"reversed seed range {part!r}")
        seeds.extend(range(first, last + 1))
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seed list {text!r} names a seed twice")
    return seeds


def quartiles(values):
    """First and third quartiles, linear interpolation between order statistics."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def lower_in(parent, change):
    """'k/n': the pairs in which the change read strictly lower."""
    wins = sum(c < p for p, c in zip(parent, change))
    return f"{wins}/{len(parent)}"


def copy_bytes_per_pass(paths):
    """Bytes of the coefficient vectors perfbench copies in one pass: one
    float64 vector of K * group_size values per rung of every path."""
    return sum(p["rungs"] * p["K"] * p["group_size"] * FLOAT_BYTES for p in paths)


def metric_summary(unit, parent, change):
    """Per-run values of both sides with the statistics of the BENCH files."""
    q1, q3 = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"unit": unit, "parent": parent, "change": change,
            "parent_median": p_med, "change_median": c_med,
            "parent_quartiles": [q1, q3], "parent_iqr": q3 - q1,
            "change_lower_in": lower_in(parent, change),
            "median_change_rel": (c_med - p_med) / p_med}


def summarize_workload(seeds, seconds, runs):
    """The end-to-end record of one workload from ``runs[side]``, a list of
    run records (one per seed, in seed order) as ``run_perfbench`` returns."""
    out = {"seeds": seeds, "seconds": seconds,
           "correct": all(r["correct"] for side in SIDES for r in runs[side]),
           "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
           "attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
           "rungs_per_pass": {s: runs[s][0]["rungs_per_pass"] for s in SIDES},
           "copy_bytes_per_pass": {s: runs[s][0]["copy_bytes_per_pass"]
                                   for s in SIDES},
           "passes": {s: [r["attempted"] / r["rungs_per_pass"] for r in runs[s]]
                      for s in SIDES}}
    for name, item in runs["parent"][0]["metrics"].items():
        out[name] = metric_summary(
            item["unit"], *([r["metrics"][name]["value"] for r in runs[s]]
                            for s in SIDES))
    return out


def summarize_traced(seconds, traced):
    """The per-layer record of one workload from one traced run per side."""
    return {"seconds": seconds,
            "correct": {s: traced[s]["correct"] for s in SIDES},
            "failed": {s: traced[s]["failed"] for s in SIDES},
            "metrics": {name: {"unit": item["unit"],
                               **{s: traced[s]["metrics"][name]["value"]
                                  for s in SIDES}}
                        for name, item in traced["parent"]["metrics"].items()}}


def run_perfbench(root, workload, seed, seconds, trace):
    """One perfbench run in checkout ``root``: its result line, the rungs of
    one pass and the copy bytes of one pass, read from its results file."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")),
               None)
    record = json.loads((Path(root) / "perfbench" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result.update(env=env,
                  rungs_per_pass=sum(p["rungs"] for p in record["paths"]),
                  copy_bytes_per_pass=copy_bytes_per_pass(record["paths"]))
    return result


def rung_hashes(root, workload, seed=TRACE_SEED):
    """The sha256 of every rung's coefficients that checkout ``root``
    computes for ``workload`` at ``seed``, in a subprocess with one BLAS thread."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, "-c", HASH_SCRIPT, workload, str(seed)],
                          cwd=root, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare_hashes(hashes):
    """The record of one workload's rung hashes, ``hashes[side]`` a list."""
    return {"seed": TRACE_SEED, "rung_sha256": hashes,
            "same_coefficients": hashes["parent"] == hashes["change"]}


def revision(root):
    """The checkout's short commit hash, suffixed ``-dirty`` when tracked
    files differ from it, or None outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty",
                           "--abbrev=7"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout root")
    parser.add_argument("--change", required=True, help="changed checkout root")
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="e.g. 41-50 or 1,2,3")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace-seconds", type=float, default=10.0)
    parser.add_argument("--title", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as err:
        parser.error(str(err))
    workloads = args.workloads.split(",")
    if not all(workloads):
        parser.error(f"empty workload name in {args.workloads!r}")
    roots = {"parent": args.parent, "change": args.change}

    env = None
    end_to_end, per_layer, coefficients = {}, {}, {}
    for workload in workloads:
        coefficients[workload] = compare_hashes(
            {s: rung_hashes(roots[s], workload) for s in SIDES})
        runs = {s: [] for s in SIDES}
        for i, seed in enumerate(seeds):
            for side in pair_order(i):
                run = run_perfbench(roots[side], workload, seed, args.seconds, 0)
                runs[side].append(run)
                env = env or run["env"]
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps({k: v["value"] for k, v in run["metrics"].items()}),
                      file=sys.stderr)
        end_to_end[workload] = summarize_workload(seeds, args.seconds, runs)
    for workload in workloads:
        traced = {s: run_perfbench(roots[s], workload, TRACE_SEED,
                                   args.trace_seconds, 1) for s in SIDES}
        per_layer[workload] = summarize_traced(args.trace_seconds, traced)

    bench = {
        "title": args.title,
        "parent": revision(args.parent),
        "change": revision(args.change),
        "env": env,
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0 in each checkout, one run per side "
                   f"and seed, the side that runs first alternating from pair to "
                   f"pair (parent first in the first pair); then one --trace 1 run "
                   f"per side at seed {TRACE_SEED} for {args.trace_seconds:g} s. "
                   f"Values are as perfbench printed them. Before the pairs, each "
                   f"checkout hashes every rung of perfbench.harness.solve at seed "
                   f"{TRACE_SEED} in a subprocess with one BLAS thread."),
        "end_to_end": end_to_end,
        "per_layer_traced_seed7": per_layer,
        "coefficients_seed7": coefficients,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
