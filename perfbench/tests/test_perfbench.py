"""Tests of the benchmark itself: inputs, metric names, trace integrity."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import envinfo, harness, speedprobe, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A few seconds' worth of both solvers, for tests that run the harness.
MINI = workloads.Workload(
    "mini", "small plain and sparse paths",
    (workloads.PathSpec(50, 10, 10, 0.8, 0.2, 0, 4),
     workloads.PathSpec(40, 4, 6, 0.8, 0.2, 2, 4, sparse=True)))


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs_bytes(instances):
    return [(inst.problem.y.tobytes(), inst.problem.design.tobytes(),
             inst.lambdas.tobytes()) for inst in instances]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.build_inputs(workload, 7)
    again = workloads.build_inputs(workload, 7)
    assert _inputs_bytes(first) == _inputs_bytes(again)


def test_seed_permutes_rows_of_the_same_instance():
    workload = workloads.WORKLOADS["deep-ladder"]
    (a,), (b,) = workloads.build_inputs(workload, 0), workloads.build_inputs(workload, 1)
    assert not np.array_equal(a.problem.y, b.problem.y)
    order_a = np.argsort(a.problem.y)
    order_b = np.argsort(b.problem.y)
    np.testing.assert_array_equal(a.problem.design[order_a], b.problem.design[order_b])
    np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=1e-12)


def test_metric_and_workload_names_match_the_benchmark_file():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(harness.END_TO_END) + list(harness.PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


def test_untraced_run_reports_every_end_to_end_metric():
    result = harness.run(MINI, seed=0, seconds=0, trace=False)
    summary = result.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == sum(p.rungs for p in MINI.paths)
    assert set(summary["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    factor = result.measured["speed_factor"]
    assert result.measured["probe_samples"] >= 1
    for name in ("solve_s", "path_s_p50", "setup_s"):
        assert result.metrics[name] == result.measured[name] * factor


def test_speed_probe_scales_to_the_reference_time():
    probe = speedprobe.SpeedProbe()
    probe.catch_up()
    probe.catch_up()  # less than PROBE_EVERY_S later: no new sample
    assert len(probe.samples) == 1
    probe.samples = [0.01, 0.03, 0.02]
    assert probe.factor() == speedprobe.REFERENCE_S / 0.02


def test_counts_repeat_across_traced_runs_and_wrappers_are_removed():
    originals = {site: owner.__dict__[attr] for site, owner, attr, *_ in tracing.SITES}
    first = harness.run(MINI, seed=3, seconds=0, trace=True)
    second = harness.run(MINI, seed=3, seconds=0, trace=True)
    assert first.correct and second.correct, first.errors + second.errors
    assert set(first.metrics) == set(harness.PER_LAYER)
    for name in harness.COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["sparse_group_lasso.signed_subproblem.calls"] > 0
    assert first.metrics["secular.solve_secular.calls"] > 0
    for site, owner, attr, *_ in tracing.SITES:
        assert owner.__dict__[attr] is originals[site], site


def test_per_path_detail_attributes_candidates_to_paths():
    result = harness.run(MINI, seed=0, seconds=0, trace=True)
    plain, sparse = result.detail
    assert plain["sign_candidates"] == 0 and plain["group_updates"] > 0
    assert sparse["sign_candidates"] >= sparse["nonzero_sparse_updates"] > 0
    assert len(sparse["sweeps_per_rung"]) == MINI.paths[1].rungs
    assert result.metrics["sparse_group_lasso.signed_subproblem.calls"] == sum(
        row["sign_candidates"] for row in result.detail)


def test_a_layer_that_is_never_called_fails_the_traced_run(monkeypatch):
    plain_only = workloads.Workload("plain", "plain path", MINI.paths[:1])
    monkeypatch.setattr(workloads.Workload, "required_sites",
                        lambda self: sorted(workloads.SPARSE_SITES))
    with pytest.raises(tracing.TraceIntegrityError, match="never called"):
        harness.run(plain_only, seed=0, seconds=0, trace=True)


def test_a_raising_path_fails_its_rungs_and_the_run_goes_on(monkeypatch):
    real_solve = harness.solve

    def solve(instance):
        if instance.spec.sparse:
            raise FloatingPointError("injected")
        return real_solve(instance)

    monkeypatch.setattr(harness, "solve", solve)
    result = harness.run(MINI, seed=0, seconds=0, trace=False)
    assert not result.correct
    assert result.attempted == sum(p.rungs for p in MINI.paths)
    assert result.failed == MINI.paths[1].rungs
    assert any("injected" in message for message in result.errors)


def test_rung_check_flags_a_loose_certificate():
    (inst,) = workloads.build_inputs(workloads.Workload("one", "", MINI.paths[:1]), 0)
    (beta, trace), *_ = harness.solve(inst)
    penalty = harness.penalty_for(inst.spec, inst.lambdas[0])
    assert harness.check_rung(inst.problem, penalty, beta, trace)[0] == []
    beta.values[:] += 1e-2
    reasons, kkt_rel = harness.check_rung(inst.problem, penalty, beta, trace)
    assert kkt_rel > harness.KKT_REL_LIMIT and reasons


def test_environment_record():
    env = envinfo.collect()
    for key in ("numpy", "blas", "blas_version", "blas_threads", "cpu", "python", "nproc"):
        assert key in env
    assert env["nproc"] >= 1


def test_refuses_to_run_without_the_solver(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    assert "cannot import exactgl" in out.stderr
