import csv
import json

import numpy as np
import pytest

import exactgl as gl
from exactgl import cli
from exactgl.cli import main
from helpers import TRAP_OPTIMUM


def _write_problem(tmp_path, y, X, sizes):
    xp, yp, gp = tmp_path / "X.csv", tmp_path / "y.csv", tmp_path / "groups.csv"
    np.savetxt(xp, np.atleast_2d(X), delimiter=",", fmt="%.17g")
    np.savetxt(yp, np.asarray(y), delimiter=",", fmt="%.17g")
    gp.write_text(",".join(str(s) for s in sizes) + "\n")
    return str(xp), str(yp), str(gp)


def _data_flags(tmp_path, y, X, sizes):
    xp, yp, gp = _write_problem(tmp_path, y, X, sizes)
    return ["--x", xp, "--y", yp, "--groups", gp]


def _read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_solve_trap_problem(tmp_path):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    out = tmp_path / "coefficients.csv"
    code = main(["solve", *flags, "--lambda", "1.0", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == ["group", "index", "value"]
    assert [row[:2] for row in rows[1:]] == [["1", "1"], ["1", "2"]]
    for row in rows[1:]:
        assert float(row[2]) == pytest.approx(TRAP_OPTIMUM, abs=1e-8)
        assert float(row[2]) == pytest.approx(0.292893, abs=1e-6)


def test_solve_writes_certificate(tmp_path):
    rng = np.random.default_rng(61)
    X = rng.standard_normal((12, 4))
    y = X @ np.array([1.0, 0.5, 0.0, 0.0]) + 0.05 * rng.standard_normal(12)
    flags = _data_flags(tmp_path, y, X, [2, 2])
    problem = gl.GroupedProblem(y, X, [2, 2])
    lam = gl.lambda_max(problem) * 1.5
    out = tmp_path / "coef.csv"
    cert_out = tmp_path / "cert.json"
    code = main(["solve", *flags, "--lambda", str(lam), "--certify",
                 "--out", str(out), "--certificate-out", str(cert_out)])
    assert code == 0
    payload = json.loads(cert_out.read_text())
    assert payload["w_norm"] == 0.0
    assert payload["converged"] is True
    assert payload["sweeps"] == 1
    assert payload["full_sweeps"] == 1
    assert payload["newton_steps"] == 0
    assert set(payload) == {"w_norm", "objective", "sweeps", "full_sweeps",
                            "newton_steps", "converged", "bounds"}
    assert set(payload["bounds"]) == {"gap"}
    values = [float(row[2]) for row in _read_rows(out)[1:]]
    assert values == [0.0, 0.0, 0.0, 0.0]


def test_solve_roundtrips_17_digits(tmp_path):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    out = tmp_path / "coef.csv"
    assert main(["solve", *flags, "--lambda", "1.0", "--out", str(out)]) == 0
    problem = gl.GroupedProblem([1.0, 1.0], np.eye(2), [2])
    beta, _ = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(1.0))
    parsed = [float(row[2]) for row in _read_rows(out)[1:]]
    assert parsed == list(beta.values)  # exact double round-trip


def test_solve_sparse_and_fista_algos(tmp_path):
    flags = _data_flags(tmp_path, [2.0, 0.0], [[1.0], [0.0]], [1])
    out = tmp_path / "coef.csv"
    assert main(["solve", *flags, "--algo", "ssls", "--lambda1", "0.5",
                 "--lambda2", "0.5", "--out", str(out)]) == 0
    assert float(_read_rows(out)[1][2]) == pytest.approx(1.0, abs=1e-8)
    assert main(["solve", *flags, "--algo", "fista", "--lambda1", "0.5",
                 "--lambda2", "0.5", "--out", str(out)]) == 0
    assert float(_read_rows(out)[1][2]) == pytest.approx(1.0, abs=1e-4)


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n2.0,3.0\n")
    xp, yp, gp = _write_problem(tmp_path, [1.0, 1.0], np.eye(2), [2])
    # malformed matrix
    assert main(["solve", "--x", str(bad), "--y", yp, "--groups", gp,
                 "--lambda", "1.0"]) == 1
    # missing penalty
    assert main(["solve", "--x", xp, "--y", yp, "--groups", gp]) == 1
    # partition does not cover the columns
    gp_bad = tmp_path / "groups_bad.csv"
    gp_bad.write_text("3\n")
    assert main(["solve", "--x", xp, "--y", yp, "--groups", str(gp_bad),
                 "--lambda", "1.0"]) == 2
    # bad flag values map to malformed input
    assert main(["solve", "--x", xp, "--y", yp, "--groups", gp,
                 "--lambda", "-1.0"]) == 1
    assert main(["solve", "--x", xp, "--y", yp, "--groups", gp,
                 "--lambda", "1.0", "--tol=-1e-8"]) == 1
    # sparse solver refuses oversized groups
    rng = np.random.default_rng(62)
    X13 = rng.standard_normal((20, 13))
    y13 = rng.standard_normal(20)
    flags = _data_flags(tmp_path, y13, X13, [13])
    assert main(["solve", *flags, "--algo", "ssls", "--lambda1", "0.5",
                 "--lambda2", "0.5",
                 "--out", str(tmp_path / "c.csv")]) == 3


def test_non_finite_input_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(63)
    X = rng.standard_normal((50, 100))
    y = rng.standard_normal(50)
    y_nan = y.copy()
    y_nan[3] = np.nan
    X_inf = X.copy()
    X_inf[7, 11] = np.inf
    for i, (yy, XX) in enumerate(((y_nan, X), (y, X_inf))):
        case = tmp_path / f"case{i}"
        case.mkdir()
        flags = _data_flags(case, yy, XX, [10] * 10)
        for algo in ("sls", "ssls"):
            penalty = (["--lambda", "1.0"] if algo == "sls"
                       else ["--lambda1", "1.0", "--lambda2", "0.5"])
            assert main(["solve", *flags, "--algo", algo, *penalty,
                         "--out", str(case / "c.csv")]) == 1
            assert "finite" in capsys.readouterr().err
        assert main(["path", *flags, "--out", str(case / "p.csv")]) == 1


def test_simulate_deterministic_and_shaped(tmp_path):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    args = ["simulate", "--n", "50", "--K", "10", "--group-size", "10",
            "--a", "0.5", "--b", "0.5", "--seed", "7"]
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    for name in ("X.csv", "y.csv", "groups.csv", "truth.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    X = np.loadtxt(d1 / "X.csv", delimiter=",")
    assert X.shape == (50, 100)
    truth = np.loadtxt(d1 / "truth.csv", delimiter=",")
    assert truth[:20].min() == 1.0 and not truth[20:].any()
    assert (d1 / "groups.csv").read_text().strip() == ",".join(["10"] * 10)


def test_simulate_rejects_bad_correlation(tmp_path):
    assert main(["simulate", "--a", "1.0", "--b", "0.2",
                 "--out-dir", str(tmp_path)]) == 1


def test_path_outputs(tmp_path):
    config = gl.SimulationConfig(n_samples=25, n_groups=3, group_size=2,
                                 a=0.5, b=0.2, seed=3)
    problem, _ = gl.sample_problem(config)
    flags = _data_flags(tmp_path, problem.y, problem.design, [2, 2, 2])
    out = tmp_path / "path.csv"
    bounds = tmp_path / "bounds.csv"
    trace = tmp_path / "trace.csv"
    assert main(["path", *flags, "--out", str(out), "--bounds-out",
                 str(bounds), "--trace-out", str(trace)]) == 0
    rows = _read_rows(out)
    assert rows[0] == ["lambda", "group", "index", "value"]
    assert len(rows) == 1 + 5 * problem.n_features
    brows = _read_rows(bounds)
    assert brows[0] == ["lambda", "M"]
    assert len(brows) == 6
    assert all(float(r[1]) >= 0.0 for r in brows[1:])
    # M must be zero exactly when every coefficient at that rung is zero
    by_lam = {}
    for lam, _, _, value in rows[1:]:
        by_lam.setdefault(lam, []).append(float(value))
    for lam_text, m_text in ((r[0], r[1]) for r in brows[1:]):
        if not any(by_lam[lam_text]):
            assert float(m_text) == 0.0
    trows = _read_rows(trace)
    assert trows[0] == ["lambda", "sweeps", "full_sweeps", "newton_steps",
                        "converged", "wall_seconds", "objective"]
    assert len(trows) == 6
    for _, sweeps, full_sweeps, newton_steps, converged, _, _ in trows[1:]:
        assert 1 <= int(full_sweeps) <= int(sweeps)
        assert int(newton_steps) >= 0
        assert converged == "1"


def test_path_explicit_lambdas(tmp_path):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    out = tmp_path / "path.csv"
    assert main(["path", *flags, "--lambdas", "1.0,0.5", "--out", str(out),
                 "--bounds-out", str(tmp_path / "b.csv"),
                 "--trace-out", str(tmp_path / "t.csv")]) == 0
    rows = _read_rows(out)
    assert len(rows) == 1 + 2 * 2
    assert main(["path", *flags, "--lambdas", "0.5,1.0", "--out", str(out),
                 "--bounds-out", str(tmp_path / "b.csv"),
                 "--trace-out", str(tmp_path / "t.csv")]) == 1


def test_path_rejects_a_non_finite_lambda(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli, "solve_path", no_solve)
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    outs = [tmp_path / name for name in ("p.csv", "b.csv", "t.csv")]
    assert main(["path", *flags, "--lambdas", "1,nan,0.5",
                 "--out", str(outs[0]), "--bounds-out", str(outs[1]),
                 "--trace-out", str(outs[2])]) == 1
    assert "finite" in capsys.readouterr().err
    assert not any(path.exists() for path in outs)


def test_bench_small_grid(tmp_path):
    out = tmp_path / "bench.csv"
    plot = tmp_path / "plot.csv"
    meta = tmp_path / "meta.json"
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.5,K=3",
                 "--algos", "sls,fista", "--n", "20", "--group-size", "3",
                 "--ladder-length", "3", "--out", str(out),
                 "--plot-out", str(plot), "--meta-out", str(meta)]) == 0
    rows = _read_rows(out)
    assert rows[0] == ["scenario", "a", "b", "K", "algorithm", "trials",
                       "mean_seconds", "std_seconds", "mean_sweeps",
                       "converged_fraction"]
    assert len(rows) == 3  # one row per algorithm
    for row in rows[1:]:
        assert row[0] == "a0.5_b0.5_K3"
        assert float(row[6]) >= 0.0
        assert 0.0 <= float(row[9]) <= 1.0
    prows = _read_rows(plot)
    assert prows[0] == ["a", "b", "K", "algorithm", "mean_seconds",
                        "log10_mean_seconds"]
    payload = json.loads(meta.read_text())
    assert payload["rng"] == "PCG64"


def test_bench_all_three_algorithms(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,ssls,fista", "--n", "15", "--group-size", "2",
                 "--ladder-length", "2", "--out", str(out),
                 "--plot-out", str(tmp_path / "p.csv"),
                 "--meta-out", str(tmp_path / "m.json")]) == 0
    rows = _read_rows(out)
    assert [r[4] for r in rows[1:]] == ["sls", "ssls", "fista"]
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,unknown"]) == 1


def test_bench_multiple_trials(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "2",
                 "--grid", "a=0.2,b=0.2,K=2", "--algos", "sls",
                 "--n", "12", "--group-size", "2", "--ladder-length", "2",
                 "--out", str(out), "--plot-out", str(tmp_path / "p.csv"),
                 "--meta-out", str(tmp_path / "m.json")]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert rows[1][5] == "2"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_nonpositive_trials(tmp_path, trials):
    outputs = [tmp_path / name for name in ("bench.csv", "p.csv", "m.json")]
    assert main(["bench", "--trials", trials,
                 "--grid", "a=0.2,b=0.2,K=2", "--algos", "sls",
                 "--n", "12", "--group-size", "2", "--ladder-length", "2",
                 "--out", str(outputs[0]), "--plot-out", str(outputs[1]),
                 "--meta-out", str(outputs[2])]) == 1
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("max_iters", ["0", "-3"])
def test_solve_rejects_nonpositive_fista_max_iters(tmp_path, max_iters):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    outputs = [tmp_path / "coef.csv", tmp_path / "cert.json"]
    assert main(["solve", *flags, "--algo", "fista", "--lambda", "1.0",
                 "--fista-max-iters", max_iters, "--certify",
                 "--out", str(outputs[0]),
                 "--certificate-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", [
    ["solve", "--lambda", "inf"],
    ["solve", "--algo", "ssls", "--lambda1", "1", "--lambda2", "inf"],
    ["solve", "--algo", "ssls", "--lambda1", "inf", "--lambda2", "1"],
    ["solve", "--algo", "fista", "--lambda", "inf"],
    ["path", "--lambdas", "inf,1"],
])
def test_infinite_penalty_weights_exit_1_and_write_nothing(tmp_path, command):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    outputs = [tmp_path / name for name in ("out.csv", "cert.json", "b.csv",
                                            "t.csv")]
    if command[0] == "solve":
        extra = ["--certify", "--certificate-out", str(outputs[1])]
    else:
        extra = ["--bounds-out", str(outputs[2]), "--trace-out", str(outputs[3])]
    assert main([*command, *flags, "--out", str(outputs[0]), *extra]) == 1
    assert not any(path.exists() for path in outputs)


def test_round_trip_simulate_solve_certify(tmp_path):
    sim_dir = tmp_path / "data"
    assert main(["simulate", "--n", "30", "--K", "4", "--group-size", "3",
                 "--a", "0.8", "--b", "0.2", "--seed", "9",
                 "--out-dir", str(sim_dir)]) == 0
    X = np.loadtxt(sim_dir / "X.csv", delimiter=",")
    y = np.loadtxt(sim_dir / "y.csv", delimiter=",")
    problem = gl.GroupedProblem(y, X, [3, 3, 3, 3])
    lam = 0.25 * gl.lambda_max(problem)
    out = tmp_path / "coef.csv"
    cert_out = tmp_path / "cert.json"
    assert main(["solve", "--x", str(sim_dir / "X.csv"),
                 "--y", str(sim_dir / "y.csv"),
                 "--groups", str(sim_dir / "groups.csv"),
                 "--lambda", str(lam), "--certify", "--out", str(out),
                 "--certificate-out", str(cert_out)]) == 0
    payload = json.loads(cert_out.read_text())
    scale = 1.0 + np.abs(X.T @ y).max()
    assert payload["converged"] is True
    assert payload["w_norm"] <= 1e-6 * scale
    # the written coefficients parse back into the in-memory solution exactly
    beta, trace = gl.solve_group_lasso(problem, gl.GroupLassoPenalty(lam))
    parsed = np.array([float(r[2]) for r in _read_rows(out)[1:]])
    assert np.array_equal(parsed, beta.values)
    assert payload["newton_steps"] == trace.newton_steps
