"""Runs one workload in a closed loop and turns what it saw into metrics.

A run first sets the workload up several times (``setup_s`` is the
median).  Then it solves the workload's paths in rounds, one pass over
the paths per round, one path after another, until ``--seconds`` is
spent; the last round of an untraced run may stop part-way.  Every rung
is checked.  Untraced runs give the end-to-end metrics, each path timed
as the median of its samples and scaled by the speed probe.  Traced runs
alternate whole untraced and traced rounds and give the per-layer
metrics, after checking that both produced the same coefficients bit for
bit and that every traced round counted the same work.
"""

import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from exactgl import certificates, group_lasso, problem as problem_mod
from exactgl import sparse_group_lasso, spectra

from . import speedprobe, tracing, workloads

KKT_REL_LIMIT = 1e-4          # certificate w_norm above this times lam fails a rung
OBJECTIVE_RISE_REL = 1e-12    # a sweep may raise the objective by round-off only
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_TARGET_S = 1.0          # stop repeating set-up once this much was timed

END_TO_END = {"solve_s": "s", "path_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "group_lasso.sweeps": "count",
    "group_lasso.group_update.calls": "count",
    "group_lasso.group_update.s": "s",
    "group_lasso.group_update.idle_frac": "frac",
    "group_lasso.sweep.self_s": "s",
    "group_lasso.lambda_max.s": "s",
    "secular.solve_secular.calls": "count",
    "secular.solve_secular.s": "s",
    "secular.solve_secular.newton_iters_mean": "iters/call",
    "sparse_group_lasso.sweeps": "count",
    "sparse_group_lasso.zero_check.calls": "count",
    "sparse_group_lasso.signed_subproblem.calls": "count",
    "sparse_group_lasso.signed_subproblem.s": "s",
    "sparse_group_lasso.candidates_per_update": "cand/update",
    "sparse_group_lasso.sweep.self_s": "s",
    "spectra.gram_spectrum.misses": "count",
    "spectra.gram_spectrum.miss_s": "s",
    "spectra.gram_spectrum.hit_frac": "frac",
    "certificates.certificate.s": "s",
    "certificates.accuracy_bounds.s": "s",
    "certificates.kkt_rel_max": "ratio",
    "simulate.sample_problem.s": "s",
    "trace.solve_s": "s",
    "trace.overhead_frac": "frac",
}

# Per-layer values that count work; they must repeat exactly between rounds.
COUNTS = ("group_lasso.sweeps", "group_lasso.group_update.calls",
          "group_lasso.group_update.idle_frac", "secular.solve_secular.calls",
          "secular.solve_secular.newton_iters_mean", "sparse_group_lasso.sweeps",
          "sparse_group_lasso.zero_check.calls",
          "sparse_group_lasso.signed_subproblem.calls",
          "sparse_group_lasso.candidates_per_update",
          "spectra.gram_spectrum.misses", "spectra.gram_spectrum.hit_frac",
          "certificates.kkt_rel_max")


@dataclass
class PathResult:
    """One path of one round: its time, checks, and what it computed."""

    index: int
    seconds: float
    rungs: int
    failed: int
    sweeps: list
    kkt_rel: list
    problems: list
    coefficients: list = field(repr=False)


def penalty_for(spec, lam):
    if spec.sparse:
        return problem_mod.SparseGroupLassoPenalty(lam / 2, lam / 2)
    return problem_mod.GroupLassoPenalty(lam)


def solve(instance):
    """The warm-started path solve that ``solve_s`` times."""
    problem, lambdas = instance.problem, instance.lambdas
    if not instance.spec.sparse:
        return [(beta, trace) for _, beta, trace in
                group_lasso.solve_path(problem, lambdas)]
    cache = spectra.SpectrumCache(problem)
    warm = None
    out = []
    for lam in lambdas:
        options = group_lasso.SolveOptions(initial=warm)
        beta, trace = sparse_group_lasso.solve_sparse_group_lasso(
            problem, penalty_for(instance.spec, lam), options, spectra=cache)
        out.append((beta, trace))
        warm = beta
    return out


def check_rung(problem, penalty, beta, trace):
    """Reasons this rung fails (empty when it passes) and its KKT ratio."""
    reasons = []
    if not trace.converged:
        reasons.append("not converged")
    obj = np.asarray(trace.objective_per_sweep, dtype=np.float64)
    allowed = OBJECTIVE_RISE_REL * np.maximum(1.0, np.abs(obj[:-1]))
    if np.any(np.diff(obj) > allowed):
        reasons.append("objective rose across a sweep")
    lam_group = penalty.lam1 if isinstance(
        penalty, problem_mod.SparseGroupLassoPenalty) else penalty.lam
    cert = certificates.certificate(problem, penalty, beta)
    certificates.accuracy_bounds(problem, penalty, beta, cert)
    kkt_rel = cert.w_norm / lam_group
    if not kkt_rel <= KKT_REL_LIMIT:
        reasons.append(f"certificate w_norm/lam = {kkt_rel:.3e}")
    return reasons, kkt_rel


def run_path(instance, tracer=None):
    """Solve and check one path; an exception fails its rungs, never the run."""
    spec = instance.spec
    if tracer is not None:
        tracer.begin_path(instance.index)
    start = perf_counter()
    try:
        if tracer is None:
            solved = solve(instance)
        else:
            with tracer.span("path"):
                solved = solve(instance)
    except Exception as exc:  # a raising solve is a failed path, counted below
        seconds = perf_counter() - start
        return PathResult(instance.index, seconds, spec.rungs, spec.rungs, [], [],
                          [f"raised {type(exc).__name__}: {exc}"], [])
    seconds = perf_counter() - start
    failed, kkt, problems = 0, [], []
    for lam, (beta, trace) in zip(instance.lambdas, solved):
        try:
            reasons, kkt_rel = check_rung(instance.problem, penalty_for(spec, lam),
                                          beta, trace)
        except Exception as exc:  # a certificate that cannot be built fails the rung
            reasons, kkt_rel = [f"check raised {type(exc).__name__}: {exc}"], None
        if kkt_rel is not None:
            kkt.append(kkt_rel)
        if reasons:
            failed += 1
            problems.append(f"lam={lam:.6g}: " + "; ".join(reasons))
    return PathResult(instance.index, seconds, spec.rungs, failed,
                      [trace.sweeps for _, trace in solved], kkt, problems,
                      [beta.values.copy() for beta, _ in solved])


def run_round(instances, tracer=None, deadline=None, expected=None, probe=None):
    """Solve the paths in order; with a deadline, stop before the first path
    whose ``expected`` seconds would overrun it.  A speed probe, when given,
    catches up between paths."""
    done = []
    for inst in instances:
        if probe is not None:
            probe.catch_up()
        if deadline is not None and perf_counter() + expected[inst.index] > deadline:
            break
        done.append(run_path(inst, tracer))
    return done


def path_samples(rounds, n_paths):
    """Every timing of each path across the rounds, indexed by path."""
    samples = [[] for _ in range(n_paths)]
    for rnd in rounds:
        for p in rnd:
            samples[p.index].append(p.seconds)
    return samples


def pass_seconds(rounds, n_paths):
    """One pass over the workload, each path at its median: solve_s."""
    return sum(statistics.median(s) for s in path_samples(rounds, n_paths))


def same_coefficients(a, b):
    """True when two rounds computed bit-identical coefficients on every rung."""
    return len(a) == len(b) and all(
        len(x.coefficients) == len(y.coefficients) and all(
            u.tobytes() == v.tobytes() for u, v in zip(x.coefficients, y.coefficients))
        for x, y in zip(a, b))


def setup_phase(workload, seed, tracer=None):
    """Set the workload up repeatedly; return the last inputs and the timings."""
    totals, traced, instances = [], [], None
    for rep in range(SETUP_MAX_REPS):
        instances = None  # free the last set first, so peak memory is one set
        if tracer is None:
            instances = workloads.build_inputs(workload, seed)
        else:
            with tracer.installed():
                instances = workloads.build_inputs(workload, seed)
            traced.append(tracing.aggregate(tracer.take())[0])
        totals.append(sum(inst.setup_s for inst in instances))
        if rep + 1 >= SETUP_MIN_REPS and sum(totals) >= SETUP_TARGET_S:
            break
    return instances, totals, traced


def layer_metrics(workload, spans, paths):
    """Per-layer metrics of one traced round (spans and checked paths)."""
    layers, self_s = tracing.aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "note_sum": 0, "note_s": 0.0}
    get = lambda name: layers.get(name, empty)
    update = get("group_lasso.group_update")
    secular = get("secular.solve_secular")
    zero = get("sparse_group_lasso.zero_check")
    signed = get("sparse_group_lasso.signed_subproblem")
    gram = get("spectra.gram_spectrum")
    sparse_paths = {i for i, spec in enumerate(workload.paths) if spec.sparse}
    sweeps = {True: 0, False: 0}
    for p in paths:
        sweeps[p.index in sparse_paths] += sum(p.sweeps)
    nonzero_updates = zero["calls"] - zero["note_sum"]
    ratio = lambda num, den: num / den if den else 0.0
    return {
        "group_lasso.sweeps": sweeps[False],
        "group_lasso.group_update.calls": update["calls"],
        "group_lasso.group_update.s": update["s"],
        "group_lasso.group_update.idle_frac": ratio(update["note_sum"], update["calls"]),
        "group_lasso.sweep.self_s": sum(
            (s for i, s in self_s.items() if i not in sparse_paths), 0.0),
        "secular.solve_secular.calls": secular["calls"],
        "secular.solve_secular.s": secular["s"],
        "secular.solve_secular.newton_iters_mean": ratio(secular["note_sum"],
                                                         secular["calls"]),
        "sparse_group_lasso.sweeps": sweeps[True],
        "sparse_group_lasso.zero_check.calls": zero["calls"],
        "sparse_group_lasso.signed_subproblem.calls": signed["calls"],
        "sparse_group_lasso.signed_subproblem.s": signed["s"],
        "sparse_group_lasso.candidates_per_update": ratio(signed["calls"],
                                                          nonzero_updates),
        "sparse_group_lasso.sweep.self_s": sum(
            (s for i, s in self_s.items() if i in sparse_paths), 0.0),
        "spectra.gram_spectrum.misses": gram["note_sum"],
        "spectra.gram_spectrum.miss_s": gram["note_s"],
        "spectra.gram_spectrum.hit_frac": ratio(gram["calls"] - gram["note_sum"],
                                                gram["calls"]),
        "certificates.certificate.s": get("certificates.certificate")["s"],
        "certificates.accuracy_bounds.s": get("certificates.accuracy_bounds")["s"],
        "certificates.kkt_rel_max": max((k for p in paths for k in p.kkt_rel),
                                        default=0.0),
    }


def path_detail(workload, untraced, traced_spans):
    """Per-path record: config, seconds per round, sweeps, candidates."""
    per_path = tracing.aggregate(traced_spans, by_path=True)[0] if traced_spans else {}
    samples = path_samples(untraced, len(workload.paths))
    detail = []
    for i, spec in enumerate(workload.paths):
        first = untraced[0][i]
        row = {"path": i, **spec.describe(),
               "seconds": samples[i],
               "sweeps_per_rung": first.sweeps,
               "failed_rungs": first.failed,
               "kkt_rel_max": max(first.kkt_rel, default=None),
               "problems": first.problems}
        if traced_spans:
            get = lambda name: per_path.get((i, name), {"calls": 0, "note_sum": 0})
            zero = get("sparse_group_lasso.zero_check")
            row.update({
                "group_updates": get("group_lasso.group_update")["calls"],
                "secular_calls": get("secular.solve_secular")["calls"],
                "newton_iters": get("secular.solve_secular")["note_sum"],
                "sign_candidates": get("sparse_group_lasso.signed_subproblem")["calls"],
                "nonzero_sparse_updates": zero["calls"] - zero["note_sum"],
                "spectrum_misses": get("spectra.gram_spectrum")["note_sum"],
            })
        detail.append(row)
    return detail


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    detail: list
    errors: list
    rounds: int
    measured: dict
    spans: list = field(default_factory=list, repr=False)

    def summary(self):
        units = {**END_TO_END, **PER_LAYER}
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in self.metrics.items()}}


def run(workload, seed, seconds, trace):
    """Run ``workload`` for about ``seconds`` and return a RunResult.

    Raises ``tracing.TraceIntegrityError`` when a traced run cannot vouch
    for its per-layer numbers.
    """
    began = perf_counter()
    deadline = began + seconds
    tracer = tracing.Tracer() if trace else None
    probe = None if trace else speedprobe.SpeedProbe()
    if probe is not None:
        probe.catch_up()
    instances, setup_totals, setup_layers = setup_phase(workload, seed, tracer)

    n_paths = len(workload.paths)
    untraced, traced, traced_metrics, spans = [run_round(instances, probe=probe)], [], [], []
    if tracer is None:
        # Closed loop over the paths until the deadline; only the first pass
        # must be whole, so long workloads still use the whole run.
        expected = {p.index: p.seconds for p in untraced[0]}
        while True:
            rnd = run_round(instances, deadline=deadline, expected=expected, probe=probe)
            if rnd:
                untraced.append(rnd)
            if len(rnd) < n_paths:
                break
        probe.catch_up()
    else:
        # Whole untraced and traced rounds in turn, so each traced round has
        # an untraced twin to compare coefficients and time against.
        while True:
            round_start = perf_counter()
            if traced:
                untraced.append(run_round(instances))
            with tracer.installed():
                traced.append(run_round(instances, tracer))
            spans = tracer.take()
            traced_metrics.append(layer_metrics(workload, spans, traced[-1]))
            if perf_counter() + (perf_counter() - round_start) > deadline:
                break

    errors = [f"path {p.index}: {msg}" for p in untraced[0] + (traced[0] if traced else [])
              for msg in p.problems]
    all_rounds = untraced + traced
    attempted = sum(p.rungs for rnd in all_rounds for p in rnd)
    failed = sum(p.failed for rnd in all_rounds for p in rnd)

    if tracer is None:
        samples = path_samples(untraced, n_paths)
        measured = {
            "solve_s": pass_seconds(untraced, n_paths),
            "path_s_p50": statistics.median(statistics.median(t) for t in samples),
            "setup_s": statistics.median(setup_totals),
        }
        factor = probe.factor()
        metrics = {name: value * factor for name, value in measured.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured.update(speed_factor=factor, probe_samples=len(probe.samples),
                        probe_s_median=statistics.median(probe.samples))
    else:
        tracer.check_required(workload.required_sites())
        for rnd in traced:
            if not same_coefficients(untraced[0], rnd):
                errors.append("traced coefficients differ from untraced ones")
        for m in traced_metrics[1:]:
            changed = [n for n in COUNTS if m[n] != traced_metrics[0][n]]
            if changed:
                errors.append(f"counts changed between traced rounds: {changed}")
        measured = {}
        metrics = dict(traced_metrics[0])
        for name, unit in PER_LAYER.items():
            if unit == "s" and name in metrics:
                metrics[name] = statistics.median(m[name] for m in traced_metrics)
        metrics["group_lasso.lambda_max.s"] = statistics.median(
            layers.get("group_lasso.lambda_max", {"s": 0.0})["s"] for layers in setup_layers)
        metrics["simulate.sample_problem.s"] = statistics.median(
            layers.get("simulate.sample_problem", {"s": 0.0})["s"] for layers in setup_layers)
        metrics["trace.solve_s"] = pass_seconds(traced, n_paths)
        metrics["trace.overhead_frac"] = (metrics["trace.solve_s"]
                                          / pass_seconds(untraced, n_paths) - 1.0)
        metrics = {name: metrics[name] for name in PER_LAYER}

    return RunResult(
        correct=failed == 0 and not errors, attempted=attempted, failed=failed,
        metrics=metrics, detail=path_detail(workload, untraced, spans), errors=errors,
        rounds=len(untraced), measured=measured, spans=spans)
