"""scripts/bench_pairs.py: the pair summary and the path-length refusal.

The script is loaded from its file without writing bytecode, as
tests/test_benchmark_contract.py loads the benchmark, and no test here
starts a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_PAIRS_PY = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("su3orbifolds_bench_pairs", BENCH_PAIRS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def no_process(*args, **kwargs):
        raise AssertionError("bench_pairs started a process")

    monkeypatch.setattr(mod.subprocess, "run", no_process)
    monkeypatch.setattr(mod.subprocess, "Popen", no_process)
    return mod


def _runs(series):
    """Runs as _bench returns them, from {metric: [value per run]}."""
    n = len(next(iter(series.values())))
    return [
        {"result": {"metrics": {name: {"value": vs[i]} for name, vs in series.items()}}}
        for i in range(n)
    ]


def test_summary(bench_pairs):
    runs = {
        "base": _runs({"queries_per_s": [10, 20, 30, 40], "query_p50_ms": [5, 5, 5, 5]}),
        "change": _runs({"queries_per_s": [11, 20, 29, 50], "query_p50_ms": [4, 6, 5, 3]}),
    }
    better = {"queries_per_s": "higher", "query_p50_ms": "lower", "ok_ratio": "higher"}
    summary = bench_pairs._summary(runs, better)
    # a pair of equal values is a tie and counts for neither side; a metric
    # that no run reports wins nothing
    assert summary["wins"] == {
        "queries_per_s": {"change": 2, "base": 1, "ties": 1},
        "query_p50_ms": {"change": 2, "base": 1, "ties": 1},
        "ok_ratio": {"change": 0, "base": 0, "ties": 0},
    }
    assert summary["medians"] == {
        "base": {"queries_per_s": 25, "query_p50_ms": 5},
        "change": {"queries_per_s": 24.5, "query_p50_ms": 4.5},
    }
    # statistics.quantiles' inclusive method: 10 + 3/4 * (20 - 10) = 17.5
    assert summary["quartiles"] == {
        "base": {"queries_per_s": [17.5, 32.5], "query_p50_ms": [5, 5]},
        "change": {"queries_per_s": [17.75, 34.25], "query_p50_ms": [3.75, 5.25]},
    }


def test_summary_of_one_pair(bench_pairs):
    runs = {"base": _runs({"setup_s": [0.5]}), "change": _runs({"setup_s": [0.4]})}
    summary = bench_pairs._summary(runs, {"setup_s": "lower"})
    assert summary["wins"] == {"setup_s": {"change": 1, "base": 0, "ties": 0}}
    assert summary["quartiles"] == {"base": {"setup_s": [0.5, 0.5]}, "change": {"setup_s": [0.4, 0.4]}}


def test_unequal_path_lengths_exit(bench_pairs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
            "--out", str(out), "--workload", "cli-exact"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "--base and --change paths differ in length (" in capsys.readouterr().err
    assert not out.exists()
