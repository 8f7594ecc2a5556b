"""The pure parts of tools/bench_pairs.py, on made-up perfbench results."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def _run(solve_s, peak, attempted, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "rungs_per_pass": 10, "copy_bytes_per_pass": 4000,
            "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                        "peak_rss_mb": {"value": peak, "unit": "MB"}}}


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent")]


def test_seed_lists_and_ranges(monkeypatch, tmp_path, capsys):
    assert bench_pairs.parse_seeds("41-44") == [41, 42, 43, 44]
    assert bench_pairs.parse_seeds("7") == [7]
    assert bench_pairs.parse_seeds("1,5-6,9") == [1, 5, 6, 9]
    bad_seeds = ["", "50-41", "3,3", "1-3,2", "x", "5-", "-5", "1,,2", "1-2-3"]
    for text in bad_seeds:
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(text)

    # the tool refuses before it starts any subprocess, and writes nothing
    def no_subprocess(*args, **kwargs):
        raise AssertionError("a subprocess started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    out = tmp_path / "bench.json"
    refused = [("tall", text) for text in bad_seeds]
    refused += [("", "1"), ("tall,", "1"), (",tall", "1")]
    for workloads, seeds in refused:
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--parent", ".", "--change", ".", "--workloads",
                              workloads, "--seeds", seeds, "--out", str(out)])
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 4.0]
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 3.25]
    assert bench_pairs.quartiles([2.5]) == [2.5, 2.5]


def test_copy_bytes_count_one_float64_vector_per_rung():
    paths = [{"rungs": 5, "K": 10, "group_size": 10},
             {"rungs": 10, "K": 2, "group_size": 3}]
    assert bench_pairs.copy_bytes_per_pass(paths) == 8 * (5 * 100 + 10 * 6)


def test_workload_summary_keeps_every_run_and_counts_wins():
    runs = {"parent": [_run(4.0, 50.0, 100), _run(3.0, 51.0, 90),
                       _run(5.0, 50.5, 110), _run(4.0, 50.0, 100)],
            "change": [_run(3.0, 51.0, 130), _run(3.5, 51.5, 120),
                       _run(2.0, 51.0, 140), _run(4.0, 50.0, 100)]}
    out = bench_pairs.summarize_workload([1, 2, 3, 4], 30.0, runs)
    solve = out["solve_s"]
    assert solve["parent"] == [4.0, 3.0, 5.0, 4.0]
    assert solve["change"] == [3.0, 3.5, 2.0, 4.0]
    assert solve["parent_median"] == 4.0
    assert solve["change_median"] == 3.25
    assert solve["parent_quartiles"] == [3.75, 4.25]
    assert solve["parent_iqr"] == 0.5
    # a tie counts for neither side
    assert solve["change_lower_in"] == "2/4"
    assert solve["median_change_rel"] == pytest.approx(-0.1875)
    assert out["peak_rss_mb"]["unit"] == "MB"
    assert out["attempted"] == {"parent": [100, 90, 110, 100],
                                "change": [130, 120, 140, 100]}
    assert out["passes"]["change"] == [13.0, 12.0, 14.0, 10.0]
    assert out["copy_bytes_per_pass"] == {"parent": 4000, "change": 4000}
    assert out["correct"] is True
    assert out["failed"] == {"parent": 0, "change": 0}


def test_a_failed_run_marks_the_workload_incorrect():
    runs = {"parent": [_run(4.0, 50.0, 100)],
            "change": [_run(3.0, 50.0, 100, correct=False, failed=2)]}
    out = bench_pairs.summarize_workload([1], 30.0, runs)
    assert out["correct"] is False
    assert out["failed"] == {"parent": 0, "change": 2}


def test_traced_summary_pairs_each_metric():
    traced = {"parent": _run(4.0, 50.0, 100), "change": _run(3.0, 49.0, 100)}
    out = bench_pairs.summarize_traced(10.0, traced)
    assert out["metrics"]["solve_s"] == {"unit": "s", "parent": 4.0, "change": 3.0}
    assert out["correct"] == {"parent": True, "change": True}


def test_hashes_compare_every_rung_in_order():
    same = bench_pairs.compare_hashes({"parent": ["a", "b"], "change": ["a", "b"]})
    assert same == {"seed": 7, "rung_sha256": {"parent": ["a", "b"],
                                                "change": ["a", "b"]},
                    "same_coefficients": True}
    for change in (["b", "a"], ["a"], ["a", "c"]):
        out = bench_pairs.compare_hashes({"parent": ["a", "b"], "change": change})
        assert out["same_coefficients"] is False


def test_a_checkout_hashes_one_sha256_per_rung():
    root = Path(__file__).resolve().parents[1]
    hashes = bench_pairs.rung_hashes(root, "deep-ladder")
    assert len(hashes) == 10  # one path of 10 rungs
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in hashes)
