"""The benchmark's contract with the package, checked in the test suite.

perfbench/workloads.py drives the public API (find_circle(act, bound=),
the pair that effectivize returns, the O5Verification fields, the CLI
reports) and checks every output it gets.  Running seeded operations of
each workload through the workload's own execute and check makes an API
change that breaks the benchmark fail here, not in a later benchmark run.
The module is loaded from its file without writing bytecode, so the test
leaves no file behind.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("su3orbifolds_benchmark_workloads", WORKLOADS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


@pytest.mark.parametrize(
    "name, ops", [("cli-exact", 200), ("api-exact-huge", 200), ("o5-gate", 3)]
)
def test_operations_pass_their_checks(monkeypatch, name, ops):
    workload = _workloads(monkeypatch)[name](seed=42, smoke=True)
    problems = []
    for _ in range(ops):
        inp = workload.next_input()
        found, _canon = workload.check(inp, workload.execute(inp))
        problems += found
    assert problems == []
