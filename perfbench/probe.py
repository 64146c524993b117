"""Set-up probe: one fresh interpreter runs one workload operation.

Usage: python3 perfbench/probe.py <workload>

Imports what the workload needs, completes its first operation once on a
minimal input and then prints "ready".  The benchmark times a probe from
process start until that line arrives.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload):
    if workload == "cli-exact":
        from su3orbifolds.cli import run

        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                code = run(["wcp", "--p", "1", "--q", "1", "--r", "3", "--json"])
            finally:
                sys.stdout = saved
        ok = code == 0
    elif workload == "api-exact-huge":
        from su3orbifolds.eschenburg6 import TorusAction6
        from workloads import torus_query

        act = TorusAction6(a=(0, 1, 1), b=(2, 3, -3), p=(0, 0, 1), q=(2, 4, -5))
        ok = torus_query(act)["validity"] == "Orbifold"
    elif workload == "o5-gate":
        from su3orbifolds.o5 import o5_verify

        ok = o5_verify(0.5, samples=1, restarts=64, seed=0, torus_points=1).passed
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready" if ok else "failed", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
