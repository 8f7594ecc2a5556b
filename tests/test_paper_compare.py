"""tools/paper_compare.py: the timed comparison of the exact update with an
inexact block step and FISTA, at matched accuracy."""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import exactgl as gl
from helpers import fitted, random_problem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import paper_compare  # noqa: E402
from paper_compare import main  # noqa: E402


def _read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_bench_small_grid(tmp_path):
    out = tmp_path / "bench.csv"
    meta = tmp_path / "meta.json"
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.5,K=3",
                 "--algos", "sls,fista", "--n", "20", "--group-size", "3",
                 "--ladder-length", "3", "--out", str(out),
                 "--meta-out", str(meta)]) == 0
    rows = _read_rows(out)
    assert rows[0] == ["scenario", "a", "b", "K", "algorithm", "trials",
                       "mean_seconds", "std_seconds", "mean_sweeps",
                       "converged_fraction"]
    assert len(rows) == 3  # one row per algorithm
    for row in rows[1:]:
        assert row[0] == "a0.5_b0.5_K3"
        assert float(row[6]) >= 0.0
        assert 0.0 <= float(row[9]) <= 1.0
    payload = json.loads(meta.read_text())
    assert payload["rng"] == "PCG64"


def test_bench_all_three_algorithms(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,ssls,fista", "--n", "15", "--group-size", "2",
                 "--ladder-length", "2", "--out", str(out),
                 "--meta-out", str(tmp_path / "m.json")]) == 0
    rows = _read_rows(out)
    assert [r[4] for r in rows[1:]] == ["sls", "ssls", "fista"]
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,unknown"]) == 1
    outputs = [tmp_path / "twice.csv", tmp_path / "twice.json"]
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,sls", "--out", str(outputs[0]),
                 "--meta-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


def test_bench_multiple_trials(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["--trials", "2",
                 "--grid", "a=0.2,b=0.2,K=2", "--algos", "sls",
                 "--n", "12", "--group-size", "2", "--ladder-length", "2",
                 "--out", str(out), "--meta-out", str(tmp_path / "m.json")]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert rows[1][5] == "2"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_nonpositive_trials(tmp_path, trials):
    outputs = [tmp_path / name for name in ("bench.csv", "m.json")]
    assert main(["--trials", trials,
                 "--grid", "a=0.2,b=0.2,K=2", "--algos", "sls",
                 "--n", "12", "--group-size", "2", "--ladder-length", "2",
                 "--out", str(outputs[0]), "--meta-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


def test_bench_rejects_a_non_finite_tol_before_writing(tmp_path):
    outputs = [tmp_path / "bench.csv", tmp_path / "m.json"]
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls", "--tol", "inf", "--out", str(outputs[0]),
                 "--meta-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


def test_bench_refuses_ssls_on_wide_groups_before_writing(tmp_path, capsys):
    # sls runs first in the algorithm list, so a late refusal would have
    # solved it and left a header-only CSV
    outputs = [tmp_path / "bench.csv", tmp_path / "m.json"]
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,ssls", "--n", "15", "--group-size", "13",
                 "--ladder-length", "2", "--out", str(outputs[0]),
                 "--meta-out", str(outputs[1])]) == 3
    assert "ceiling" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


def test_fista_meeting_its_target_on_its_last_iteration_is_converged(tmp_path):
    # cap every rung at the most iterations any rung of the path needs to
    # reach the exact solver's KKT ratio on that rung, floored at the
    # certificate's rounding
    config = gl.SimulationConfig(n_samples=20, n_groups=3, group_size=2,
                                 a=0.5, b=0.2, seed=0)
    problem, _ = gl.sample_problem(config)
    lambdas = gl.penalty_ladder(problem, 3).values
    exact = gl.solve_path(problem, lambdas)
    warm, iters = None, []
    for lam, beta, _ in exact:
        penalty = gl.GroupLassoPenalty(lam)
        target = max(gl.certificate(problem, penalty, beta).kkt_ratio,
                     paper_compare.kkt_floor(problem, beta, lam))
        warm, trace = gl.fista_solve(problem, penalty,
                                     gl.SolveOptions(tol=target, initial=warm))
        assert trace.converged
        iters.append(trace.sweeps)
    out = tmp_path / "bench.csv"
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=3",
                 "--algos", "fista", "--n", "20", "--group-size", "2",
                 "--ladder-length", "3", "--fista-max-iters", str(max(iters)),
                 "--out", str(out), "--meta-out", str(tmp_path / "m.json")]) == 0
    row = _read_rows(out)[1]
    assert float(row[8]) == sum(iters)
    assert row[9] == "1"


def test_all_four_algorithms_on_one_tiny_cell(tmp_path):
    out, meta = tmp_path / "paper.csv", tmp_path / "paper.json"
    algos = ["sls", "ssls", "inexact", "fista"]
    assert main(["--trials", "2", "--grid", "a=0.5,b=0.2,K=3", "--n", "12",
                 "--group-size", "4", "--ladder-length", "3",
                 "--algos", ",".join(algos), "--out", str(out),
                 "--meta-out", str(meta)]) == 0
    rows = _read_rows(out)
    assert [r[4] for r in rows[1:]] == algos
    payload = json.loads(meta.read_text())
    assert payload["algorithms"] == algos
    assert {"numpy", "python", "cpu", "blas_threads"} <= set(payload["env"])
    (cell,) = payload["cells"]
    assert cell["scenario"] == "a0.5_b0.2_K3"
    solvers = cell["solvers"]
    assert list(solvers) == algos
    for algo, record in solvers.items():
        assert len(record["seconds"]) == len(record["sweeps"]) == 2
        assert record["kkt_ratio_max"] >= 0.0
        assert record["matched"] is (None if algo == "ssls" else True)
    ranked = ("sls", "inexact", "fista")
    faster = [a for a in ranked if all(
        solvers[a]["seconds"][i] < solvers[b]["seconds"][i]
        for i in range(2) for b in ranked if b != a)]
    assert cell["winner"] == (faster[0] if faster else "unresolved")


def _path_run(seconds, matched=True):
    return paper_compare.Run(seconds=seconds, sweeps=1, converged=[True],
                             kkt=[1e-9], matched=matched)


def test_a_winner_must_be_faster_on_every_trial():
    config = gl.SimulationConfig(n_samples=12, n_groups=2, group_size=2,
                                 a=0.5, b=0.8)
    algos = ["sls", "inexact", "fista"]
    # sls has the lower mean but loses the second seed to inexact
    trials = [dict(zip(algos, map(_path_run, seconds)))
              for seconds in ((1.0, 3.0, 9.0), (1.2, 1.1, 9.0))]
    record = paper_compare._cell_record(config, algos, trials)
    assert (record["solvers"]["sls"]["mean_seconds"]
            < record["solvers"]["inexact"]["mean_seconds"])
    assert record["winner"] == "unresolved"
    # an unmatched solver neither wins nor spoils another's win
    trials[1]["inexact"] = _path_run(1.1, matched=False)
    assert paper_compare._cell_record(config, algos, trials)["winner"] == "sls"
    for runs in trials:
        for algo in algos:
            runs[algo].matched = False
    assert paper_compare._cell_record(config, algos, trials)["winner"] == "unmatched"


@pytest.mark.parametrize("seed", range(8))
def test_the_inexact_step_reaches_the_exact_certificate_level(seed):
    rng = np.random.default_rng(70 + seed)
    problem = random_problem(rng, sizes=[3, 2, 4, 3], n=10)
    lambdas = gl.lambda_max(problem) * 0.5 ** np.arange(1, 4)
    runs = paper_compare.compare_path(problem, lambdas, ("sls", "inexact"),
                                      1e-8, 1000)
    exact, inexact = runs["sls"], runs["inexact"]
    assert all(inexact.converged)
    path = gl.solve_path(problem, lambdas)
    floors = [paper_compare.kkt_floor(problem, beta, lam)
              for lam, beta, _ in path]
    # every rung is met, also one the exact update solves to rounding, as it
    # does when one group is nonzero (seeds 3 and 6 have one), where the
    # target is the certificate's rounding floor
    assert inexact.matched
    assert all(r <= max(t, f) for r, t, f in zip(inexact.kkt, exact.kkt, floors))
    # the same optimum, by the certificates of both
    spectra, warm = gl.SpectrumCache(problem), None
    for lam, (_, beta, _) in zip(lambdas, path):
        penalty = gl.GroupLassoPenalty(lam)
        step, _ = paper_compare.inexact_solve(
            problem, penalty, gl.SolveOptions(tol=1e-13, initial=warm), spectra)
        warm = step
        gaps = [gl.certificate(problem, penalty, b).gap for b in (beta, step)]
        assert (np.linalg.norm(fitted(problem, beta) - fitted(problem, step))
                <= sum(np.sqrt(gaps)))


def test_a_rung_solved_to_rounding_is_matched_at_the_certificate_floor():
    # the exact update solves the first rung to a KKT ratio near 1e-16, out
    # of FISTA's reach; floored at the certificate's rounding, the target is
    # met in a few dozen iterations instead of running to the cap
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=12, n_groups=2, group_size=2, a=0.2, b=0.2, seed=1))
    lambdas = gl.penalty_ladder(problem, 2).values
    runs = paper_compare.compare_path(problem, lambdas, ("sls", "fista"),
                                      1e-8, 100_000)
    exact, fista = runs["sls"], runs["fista"]
    (_, beta, _), _ = gl.solve_path(problem, lambdas)
    floor = paper_compare.kkt_floor(problem, beta, lambdas[0])
    assert exact.kkt[0] < floor < 1e-13
    assert fista.matched and all(fista.converged)
    assert fista.sweeps < 1000


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="needs a long double wider than a double")
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_the_floor_bounds_the_rounding_of_the_certificate_gradient(scale):
    # X'(y - X b) in double, as the certificate forms it, is within the
    # floor's e of the same product in long double, entry by entry
    rng = np.random.default_rng(59)
    for _ in range(20):
        problem = random_problem(rng, sizes=rng.integers(1, 6, size=4), n=15)
        problem = gl.GroupedProblem(scale * problem.y, problem.design,
                                    problem.group_sizes)
        lam = 0.3 * gl.lambda_max(problem)
        beta, _ = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam))
        X, y, b = problem.design, problem.y, beta.values
        xtr = X.T @ (y - X @ b)
        wide = X.astype(np.longdouble)
        exact = wide.T @ (y.astype(np.longdouble) - wide @ b.astype(np.longdouble))
        m = problem.n_samples + problem.n_features + 1
        u = np.finfo(np.float64).eps / 2
        e = m * u / (1 - m * u) * (np.abs(X).T @ (np.abs(y) + np.abs(X) @ np.abs(b)))
        assert np.all(np.abs(xtr - exact) <= e)
        assert paper_compare.kkt_floor(problem, beta, lam) == pytest.approx(
            np.linalg.norm(e) / lam, rel=1e-12)


def test_the_inexact_step_refuses_n_above_p(tmp_path, capsys):
    outputs = [tmp_path / "paper.csv", tmp_path / "paper.json"]
    assert main(["--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,inexact", "--n", "15", "--group-size", "2",
                 "--out", str(outputs[0]), "--meta-out", str(outputs[1])]) == 1
    assert "p >= n" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=15, n_groups=2, group_size=2, seed=0))
    with pytest.raises(ValueError, match="p >= n"):
        paper_compare.inexact_solve(problem, gl.GroupLassoPenalty(1.0),
                                    gl.SolveOptions(), gl.SpectrumCache(problem))


@pytest.mark.parametrize("flag, value", [
    ("--grid", "a=0.5,b=0.2"), ("--grid", "a=0.5,b=x,K=2"), ("--grid", ";"),
    ("--grid", "a=1.0,b=0.2,K=2"), ("--n", "0"), ("--seed", "-1"),
    ("--ladder-length", "0"), ("--fista-max-iters", "0"), ("--algos", ""),
    ("--meta-out", "missing/m.json")])
def test_every_malformed_flag_exits_1_and_writes_nothing(tmp_path, capsys,
                                                          flag, value):
    if flag == "--meta-out":
        value = str(tmp_path / value)
    argv = ["--trials", "1", "--grid", "a=0.5,b=0.2,K=2", "--algos", "sls",
            "--n", "4", "--group-size", "2", "--ladder-length", "2",
            "--out", str(tmp_path / "paper.csv"),
            "--meta-out", str(tmp_path / "m.json"), flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == []
