"""Alternating base/change runs of the perfbench workloads.

    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_x.json \
        --workload o5-gate --pairs 10 --seconds 25 [--workload cli-exact ...] \
        [--seed 42] [--tier1]

DIR is a full checkout (the benchmark imports the package from its own
``src``).  The two absolute paths must be equally long: the length of
the checkout's path alone has moved ``o5-gate`` timings by 7%.  For each
workload and pair, ``perfbench/run.py --workload W --seed N --seconds
S`` runs in both checkouts one after the other, the base first in odd
pairs and the change first in even ones.  The output keeps, per run, the
raw last line (the result) and the ``environment`` of the detail line;
per metric, each side's median and quartiles (the inclusive method of
``statistics.quantiles``); and, per metric that ``BENCHMARK.json`` in
the base checkout declares, how many pairs each side won in its
``better`` direction, equal values counting as ties for neither side.
Only seed 42 checks the golden digests.  Before its pairs, each workload
also gets an interleaved series of 20 set-up probes per side: the
checkout's ``perfbench/probe.py``, timed from process start to its
"ready" line as ``perfbench/run.py`` times ``setup_s``, alternating the
side that goes first.  The series, its median and its quartiles are
kept under ``setup_probes``; they show the host's set-up phases, which
three probes per run cannot.
With ``--tier1`` the Tier-1 suite also runs once in each checkout (base
first) with one BLAS thread, and its wall time and the durations of its
slowest tests are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from time import perf_counter

SETUP_PROBES = 20


def _bench(checkout, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    detail = json.loads(out[-2])["detail"]
    return {"result": json.loads(out[-1]), "golden": detail.get("golden"),
            "environment": detail["environment"]}


def _setup_probe(checkout, workload):
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(os.path.abspath(checkout), "perfbench", "probe.py"), workload],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed in {checkout}: {line.strip()!r}")
    return elapsed


def _setup_series(sides, workload):
    series = {"base": [], "change": []}
    for k in range(SETUP_PROBES):
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            series[side].append(_setup_probe(sides[side], workload))
    return {
        "series": series,
        "medians": {side: statistics.median(v) for side, v in series.items()},
        "quartiles": {side: _quartiles(v) for side, v in series.items()},
    }


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _summary(runs, better):
    """Each side's per-metric medians and quartiles, and the pairs won."""
    values = {
        side: {name: [r["result"]["metrics"][name]["value"] for r in rs]
               for name in rs[0]["result"]["metrics"]}
        for side, rs in runs.items()
    }
    wins = {}
    for name, direction in better.items():
        counts = {"change": 0, "base": 0, "ties": 0}
        for b, c in zip(values["base"].get(name, ()), values["change"].get(name, ())):
            if b == c:
                counts["ties"] += 1
            elif (c < b) == (direction == "lower"):
                counts["change"] += 1
            else:
                counts["base"] += 1
        wins[name] = counts
    return {
        "medians": {side: {name: statistics.median(v) for name, v in vs.items()}
                    for side, vs in values.items()},
        "quartiles": {side: {name: _quartiles(v) for name, v in vs.items()}
                      for side, vs in values.items()},
        "wins": wins,
    }


def _tier1(checkout):
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=3"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    return {
        "wall_s": perf_counter() - start,
        "summary": lines[-1] if lines else "",
        "slowest": [ln for ln in lines if re.match(r"^\d+\.\d+s call ", ln)],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args(argv)
    sides = {"base": args.base, "change": args.change}
    lengths = {side: len(os.path.abspath(path)) for side, path in sides.items()}
    if lengths["base"] != lengths["change"]:
        ap.error(
            f"--base and --change paths differ in length ({lengths['base']} and "
            f"{lengths['change']} characters), which moves timings by itself"
        )
    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for wl in args.workload:
        setup = _setup_series(sides, wl)
        print(wl, "setup probes", json.dumps(setup["medians"]), flush=True)
        runs = {"base": [], "change": []}
        for k in range(args.pairs):
            for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                runs[side].append(_bench(sides[side], wl, args.seed, args.seconds))
                print(wl, k, side, json.dumps(runs[side][-1]["result"]["metrics"]), flush=True)
        report["workloads"][wl] = {"runs": runs, **_summary(runs, better), "setup_probes": setup}
    if args.tier1:
        report["tier1"] = {side: _tier1(sides[side]) for side in ("base", "change")}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
