"""Alternating base/change runs of the perfbench workloads.

    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_x.json \
        --workload o5-gate --pairs 6 --seconds 25 [--workload cli-exact ...] \
        [--seed 42] [--tier1]

DIR is a full checkout (the benchmark imports the package from its own
``src``).  The two absolute paths must be equally long: the length of
the checkout's path alone has moved ``o5-gate`` timings by 7%.  For each
workload and pair, ``perfbench/run.py --workload W --seed N --seconds
S`` runs in both checkouts one after the other, the base first in odd
pairs and the change first in even ones.  The output keeps, per run, the
raw last line (the result) and the ``environment`` of the detail line,
plus the per-metric medians; only seed 42 checks the golden digests.
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


def _bench(checkout, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    detail = json.loads(out[-2])["detail"]
    return {"result": json.loads(out[-1]), "golden": detail.get("golden"),
            "environment": detail["environment"]}


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
    ap.add_argument("--pairs", type=int, default=6)
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
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for wl in args.workload:
        runs = {"base": [], "change": []}
        for k in range(args.pairs):
            for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                runs[side].append(_bench(sides[side], wl, args.seed, args.seconds))
                print(wl, k, side, json.dumps(runs[side][-1]["result"]["metrics"]), flush=True)
        medians = {
            side: {
                name: statistics.median(r["result"]["metrics"][name]["value"] for r in rs)
                for name in rs[0]["result"]["metrics"]
            }
            for side, rs in runs.items()
        }
        report["workloads"][wl] = {"runs": runs, "medians": medians}
    if args.tier1:
        report["tier1"] = {side: _tier1(sides[side]) for side in ("base", "change")}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
