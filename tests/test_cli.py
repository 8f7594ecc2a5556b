import csv
import json
import warnings

import numpy as np
import pytest

import exactgl as gl
from exactgl import cli
from exactgl.cli import main
from exactgl.group_lasso import DEFAULT_TOL
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
    code = main(["solve", *flags, "--lambda", str(lam),
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


def test_simulate_rejects_negative_seed_up_front(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--a", "0.5", "--b", "0.5", "--seed", "-1",
                 "--out-dir", str(out)]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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
    meta = tmp_path / "meta.json"
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.5,K=3",
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
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,ssls,fista", "--n", "15", "--group-size", "2",
                 "--ladder-length", "2", "--out", str(out),
                 "--meta-out", str(tmp_path / "m.json")]) == 0
    rows = _read_rows(out)
    assert [r[4] for r in rows[1:]] == ["sls", "ssls", "fista"]
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,unknown"]) == 1
    outputs = [tmp_path / "twice.csv", tmp_path / "twice.json"]
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,sls", "--out", str(outputs[0]),
                 "--meta-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


def test_bench_multiple_trials(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "2",
                 "--grid", "a=0.2,b=0.2,K=2", "--algos", "sls",
                 "--n", "12", "--group-size", "2", "--ladder-length", "2",
                 "--out", str(out), "--meta-out", str(tmp_path / "m.json")]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert rows[1][5] == "2"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_nonpositive_trials(tmp_path, trials):
    outputs = [tmp_path / name for name in ("bench.csv", "m.json")]
    assert main(["bench", "--trials", trials,
                 "--grid", "a=0.2,b=0.2,K=2", "--algos", "sls",
                 "--n", "12", "--group-size", "2", "--ladder-length", "2",
                 "--out", str(outputs[0]), "--meta-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("max_iters", ["0", "-3"])
def test_solve_rejects_nonpositive_fista_max_iters(tmp_path, max_iters):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    outputs = [tmp_path / "coef.csv", tmp_path / "cert.json"]
    assert main(["solve", *flags, "--algo", "fista", "--lambda", "1.0",
                 "--fista-max-iters", max_iters,
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
        extra = ["--certificate-out", str(outputs[1])]
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
                 "--lambda", str(lam), "--out", str(out),
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


def test_solve_writes_a_certificate_only_when_asked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    assert main(["solve", *flags, "--lambda", "1.0"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "X.csv", "coefficients.csv", "groups.csv", "y.csv"]


@pytest.mark.parametrize("command", [
    ["solve", "--lambda", "0.5"],
    ["solve", "--algo", "fista", "--lambda", "0.5"],
    ["path"],
])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_1_and_writes_nothing(tmp_path, command, tol):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    outputs = [tmp_path / name for name in ("out.csv", "cert.json", "b.csv",
                                            "t.csv")]
    if command[0] == "solve":
        extra = ["--certificate-out", str(outputs[1])]
    else:
        extra = ["--bounds-out", str(outputs[2]), "--trace-out", str(outputs[3])]
    assert main([*command, *flags, "--tol", tol, "--out", str(outputs[0]),
                 *extra]) == 1
    assert not any(path.exists() for path in outputs)


def test_bench_rejects_a_non_finite_tol_before_writing(tmp_path):
    outputs = [tmp_path / "bench.csv", tmp_path / "m.json"]
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls", "--tol", "inf", "--out", str(outputs[0]),
                 "--meta-out", str(outputs[1])]) == 1
    assert not any(path.exists() for path in outputs)


def test_bench_refuses_ssls_on_wide_groups_before_writing(tmp_path, capsys):
    # sls runs first in the algorithm list, so a late refusal would have
    # solved it and left a header-only CSV
    outputs = [tmp_path / "bench.csv", tmp_path / "m.json"]
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=2",
                 "--algos", "sls,ssls", "--n", "15", "--group-size", "13",
                 "--ladder-length", "2", "--out", str(outputs[0]),
                 "--meta-out", str(outputs[1])]) == 3
    assert "ceiling" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


def test_fista_meeting_tol_on_its_last_iteration_is_converged(tmp_path):
    sim_dir = tmp_path / "data"
    assert main(["simulate", "--n", "30", "--K", "4", "--group-size", "3",
                 "--a", "0.5", "--b", "0.2", "--seed", "3",
                 "--out-dir", str(sim_dir)]) == 0
    flags = ["--x", str(sim_dir / "X.csv"), "--y", str(sim_dir / "y.csv"),
             "--groups", str(sim_dir / "groups.csv"),
             "--algo", "fista", "--lambda", "0.5"]

    def solve(*extra):
        out, cert_out = tmp_path / "coef.csv", tmp_path / "cert.json"
        assert main(["solve", *flags, *extra, "--out", str(out),
                     "--certificate-out", str(cert_out)]) == 0
        return out.read_bytes(), json.loads(cert_out.read_text())

    coefficients, payload = solve()
    assert payload["converged"] is True
    # the same iterations under a cap equal to their count: same answer
    assert solve("--fista-max-iters", str(payload["sweeps"])) == (coefficients,
                                                                 payload)

    # bench: cap every rung at the most iterations any rung of the path needs
    config = gl.SimulationConfig(n_samples=20, n_groups=3, group_size=2,
                                 a=0.5, b=0.2, seed=0)
    problem, _ = gl.sample_problem(config)
    scale = 1.0 + np.abs(problem.design.T @ problem.y).max()
    options = gl.OracleOptions(tol=DEFAULT_TOL * scale)
    warm, iters = None, []
    for lam in gl.penalty_ladder(problem, 3).values:
        warm, it = gl.fista_solve(problem, gl.GroupLassoPenalty(lam), options,
                                  initial=warm)
        iters.append(it)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "1", "--grid", "a=0.5,b=0.2,K=3",
                 "--algos", "fista", "--n", "20", "--group-size", "2",
                 "--ladder-length", "3", "--fista-max-iters", str(max(iters)),
                 "--out", str(out), "--meta-out", str(tmp_path / "m.json")]) == 0
    row = _read_rows(out)[1]
    assert float(row[8]) == sum(iters)
    assert row[9] == "1"


@pytest.mark.parametrize("lambdas", ["1,,0.5", "1,0.5,", ",1", ""])
def test_path_rejects_an_empty_lambda_token(tmp_path, lambdas):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    outs = [tmp_path / name for name in ("p.csv", "b.csv", "t.csv")]
    assert main(["path", *flags, "--lambdas", lambdas,
                 "--out", str(outs[0]), "--bounds-out", str(outs[1]),
                 "--trace-out", str(outs[2])]) == 1
    assert not any(path.exists() for path in outs)


@pytest.mark.parametrize("groups", ["", "0,12\n", "-1,13\n"],
                         ids=["empty", "zero", "negative"])
def test_malformed_group_files_exit_1_and_write_nothing(tmp_path, capsys, groups):
    X = np.random.default_rng(63).standard_normal((5, 12))
    xp, yp, gp = _write_problem(tmp_path, X.sum(axis=1), X, [12])
    (tmp_path / "groups.csv").write_text(groups)
    out = tmp_path / "coef.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--x", xp, "--y", yp, "--groups", gp,
                     "--lambda", "1.0", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert caught == []
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["solve", "--lambda", "1e-160"], ["solve", "--lambda", "1e-200"],
    ["path", "--lambdas", "1e-300"]], ids=["solve-1e-160", "solve-1e-200",
                                           "path-1e-300"])
def test_a_tiny_penalty_gives_the_least_squares_fit(tmp_path, command):
    # f(0) of the secular equation overflows at these penalties
    problem, _ = gl.sample_problem(gl.SimulationConfig(
        n_samples=30, n_groups=4, group_size=3, a=0.5, b=0.2, seed=3))
    flags = _data_flags(tmp_path, problem.y, problem.design, problem.group_sizes)
    out, cert = tmp_path / "out.csv", tmp_path / "cert.json"
    extra = (["--certificate-out", str(cert)] if command[0] == "solve" else
             ["--bounds-out", str(tmp_path / "b.csv"),
              "--trace-out", str(tmp_path / "t.csv")])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*command, *flags, "--out", str(out), *extra]) == 0
    if command[0] == "solve":
        payload = json.loads(cert.read_text())
        assert payload["converged"] is True
        assert np.isfinite(payload["bounds"]["gap"])
    values = np.array([float(row[-1]) for row in _read_rows(out)[1:]])
    lstsq = np.linalg.lstsq(problem.design, problem.y, rcond=None)[0]
    np.testing.assert_allclose(values, lstsq, rtol=0,
                               atol=1e-7 * np.abs(lstsq).max())


@pytest.mark.parametrize("command", ["solve", "path", "simulate"])
def test_an_unwritable_output_exits_1_with_one_error_line(tmp_path, capsys, command):
    flags = _data_flags(tmp_path, [1.0, 1.0], np.eye(2), [2])
    missing = tmp_path / "missing"
    if command == "solve":
        argv = ["solve", *flags, "--lambda", "1.0", "--out", str(missing / "c.csv")]
    elif command == "path":
        argv = ["path", *flags, "--lambdas", "1.0,0.5",
                "--out", str(tmp_path / "p.csv"),
                "--bounds-out", str(missing / "b.csv"),
                "--trace-out", str(tmp_path / "t.csv")]
    else:
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        argv = ["simulate", "--n", "5", "--K", "2", "--group-size", "2",
                "--a", "0.5", "--b", "0.5", "--out-dir", str(taken)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
