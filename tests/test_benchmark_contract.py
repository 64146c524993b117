"""The benchmark's contract with the package, checked in the test suite.

perfbench/workloads.py drives the public API (find_circle(act, bound=),
the pair that effectivize returns, the O5Verification fields, the CLI
reports) and checks every output it gets.  Running seeded operations of
each workload through the workload's own execute and check makes an API
change that breaks the benchmark fail here, not in a later benchmark run.
The module is loaded from its file without writing bytecode, so the test
leaves no file behind.  The exact workloads' first operations at the
default seed must also reproduce the output digests that a benchmark run
compares with perfbench/golden.json, so a change to report bytes fails
here.  o5-gate's digest depends on the floating-point environment, so it
is checked only where perfbench/run.py's fingerprint() equals the one
stored with it, and skipped elsewhere.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS_PY = PERFBENCH / "workloads.py"
RUN_PY = PERFBENCH / "run.py"


def _load(monkeypatch, name, path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _workloads(monkeypatch):
    return _load(monkeypatch, "su3orbifolds_benchmark_workloads", WORKLOADS_PY).WORKLOADS


def _fingerprint(monkeypatch):
    # run.py pins BLAS to one thread at import by writing these variables;
    # setting them here first lets monkeypatch restore them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return _load(monkeypatch, "su3orbifolds_benchmark_run", RUN_PY).fingerprint()


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


@pytest.mark.parametrize("name", ["cli-exact", "api-exact-huge", "o5-gate"])
def test_golden_digest(monkeypatch, name):
    # the order of perfbench/run.py's Runner: a batch of inputs, their
    # executions, then their checks; the first `ops` canonical outputs
    # are hashed, each followed by a newline
    golden = json.loads((PERFBENCH / "golden.json").read_text())[name]
    if "fingerprint" in golden and golden["fingerprint"] != _fingerprint(monkeypatch):
        pytest.skip("floating-point environment differs from the golden one")
    workload = _workloads(monkeypatch)[name](seed=golden["seed"])
    digest, problems, done = hashlib.sha256(), [], 0
    while done < golden["ops"]:
        inputs = [workload.next_input() for _ in range(workload.batch)]
        outs = [workload.execute(inp) for inp in inputs]
        for inp, out in zip(inputs[: golden["ops"] - done], outs):
            found, canon = workload.check(inp, out)
            problems += found
            digest.update(canon + b"\n")
            done += 1
    assert problems == []
    assert digest.hexdigest() == golden["sha256"]
