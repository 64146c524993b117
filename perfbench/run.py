#!/usr/bin/env python3
"""Benchmark of su3orbifolds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-exact --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md): cli-exact, api-exact-huge, o5-gate.
Each is a closed loop with one client in this single process; BLAS is
pinned to one thread before numpy is imported.

--trace 0 measures for --seconds seconds with tracing off and reports the
end-to-end metrics.  --trace 1 runs a fixed operation list twice, untraced
and traced, and reports the per-layer metrics and the tracing overhead.
Outputs are checked outside the timed region.  The second-to-last line of
standard output is a JSON object with the environment and details (tail
percentile, sample counts, check results); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Maintenance: --write-golden records the output digests of a workload at
the default seed in perfbench/golden.json.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPANS = ROOT / ".perfbench"  # traced runs write their spans here
DEFAULT_SEED = 42
SETUP_PROBES = 3
IMPORT_PROBES = 3
IMPORT_MODULES = ("cli", "su3", "o5")
# per-point costs quoted in ROADMAP.md (single-threaded BLAS, 2-core box)
ROADMAP_P50_MS = {"o5.distance_to_torus": 44.0, "o5.min_flatness": 55.0}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("verify_s", "s"),
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                lib = ctypes.CDLL(path)
                for sym in (
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads",
                ):
                    if hasattr(lib, sym):
                        return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for f in sorted((SRC / "su3orbifolds").iterdir()):
        if f.suffix in (".py", ".json"):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def fingerprint():
    """What the floating-point results of o5-gate depend on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def environment():
    return {
        **fingerprint(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------


def setup_seconds(workload, probes):
    """Median time from process start to the first completed operation."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line.strip()!r}")
    return statistics.median(times)


def import_seconds(module, probes):
    """Median cost of ``import su3orbifolds.<module>`` in a fresh interpreter,
    from -X importtime: the cumulative times of its top-level entries."""
    totals = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import su3orbifolds.{module}"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]  # one separator space, then two per nesting level
            if not name.startswith(" ") and name.split(".")[0] == "su3orbifolds":
                total_us += int(parts[1])
        totals.append(total_us / 1e6)
    return statistics.median(totals)


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Runner:
    """Executes batches of one workload's operations and checks them.

    Only ``execute`` calls are timed.  An operation fails on an uncaught
    exception or on any check problem, which covers exit code 3 and
    ``passed: false``.
    """

    def __init__(self, workload, digest_ops=0):
        self.workload = workload
        self.latencies = []
        self.batches = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()
        self.digest_ops = digest_ops
        self.digested = 0

    def execute(self, inputs, tracer=None, timed=True):
        outs, total = [], 0.0
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.op = self.attempted + i
            start = perf_counter()
            try:
                out, err = self.workload.execute(inp), None
            except Exception:
                out, err = None, traceback.format_exc(limit=4)
            elapsed = perf_counter() - start
            total += elapsed
            if timed:
                self.latencies.append(elapsed)
            outs.append((out, err))
        if timed:
            self.batches.append(total)
        return outs, total

    def check(self, inputs, outs):
        for inp, (out, err) in zip(inputs, outs):
            self.attempted += 1
            if err is None:
                try:
                    problems, canon = self.workload.check(inp, out)
                except Exception:
                    problems, canon = [f"check raised: {traceback.format_exc(limit=4)}"], b"!"
            else:
                problems, canon = [f"uncaught exception: {err}"], b"!"
            if self.digested < self.digest_ops:
                self.digest.update(canon + b"\n")
                self.digested += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(problems[0])

    def run(self, inputs, tracer=None, timed=True):
        outs, total = self.execute(inputs, tracer, timed)
        self.check(inputs, outs)
        return total


def _order_stat(xs, k):
    """k-th smallest of sorted xs (1-based), its percentile and the
    number of samples beyond it."""
    n = len(xs)
    return {"value_ms": 1e3 * xs[k - 1], "percentile": 100.0 * k / n, "samples_beyond": n - k, "samples": n}


def _freeze_heap():
    """Move every object alive now (imported modules, the benchmark's own
    state) out of the collector's reach, so full collections during the
    run scan what the workload allocates, not ~70k import-time objects
    (a 40-50 ms pause each, otherwise the whole cli-exact tail)."""
    gc.collect()
    gc.freeze()


def _golden_entry(workload):
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    return data.get(workload)


def _finish_digest(runner, workload):
    while runner.digested < runner.digest_ops:
        runner.run([workload.next_input() for _ in range(workload.batch)], timed=False)


def golden_status(runner, workload):
    """Compare the digest of the first operations with the stored one."""
    _finish_digest(runner, workload)
    entry = _golden_entry(workload.name)
    if entry is None:
        return False, "no golden digest stored"
    if entry.get("fingerprint") not in (None, fingerprint()):
        return True, "skipped: floating-point environment differs from the golden one"
    ok = entry["sha256"] == runner.digest.hexdigest() and entry["ops"] == runner.digest_ops
    return ok, "match" if ok else "MISMATCH"


def measure(args, wl_cls):
    """End-to-end run: set-up probes, then closed-loop batches for
    --seconds of timed execution."""
    setup_s = setup_seconds(args.workload, 1 if args.smoke else SETUP_PROBES)
    workload = wl_cls(args.seed, smoke=args.smoke)
    golden = args.seed == DEFAULT_SEED and not args.smoke
    runner = Runner(workload, workload.golden_ops if golden else 0)
    _freeze_heap()
    while sum(runner.batches) < args.seconds:
        runner.run([workload.next_input() for _ in range(workload.batch)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {}
    correct = runner.failed == 0
    if golden:
        ok, detail["golden"] = golden_status(runner, workload)
        correct = correct and ok
    lat = runner.latencies
    xs = sorted(lat)
    tail = _order_stat(xs, math.ceil(0.99 * len(xs)))
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_tail_ms": tail["value_ms"],
        # the mean, not the median: with 4-25 batches a run the median
        # jumped between the host's speed phases within one run
        "verify_s": sum(lat) / len(runner.batches),
    }
    detail.update(
        samples=len(lat),
        query_tail=tail,
        # the highest percentile with ten samples beyond it: reported, not
        # scored, because rare slow inputs make it jump from run to run
        tail_10_beyond=_order_stat(xs, len(xs) - 10) if len(xs) > 10 else None,
        verify_batches=len(runner.batches),
        batch_ops=workload.batch,
        timed_s=sum(lat),
        ok_ratio={"ok": runner.attempted - runner.failed, "attempted": runner.attempted},
        oracle_checks=getattr(getattr(workload, "torsion", None), "checked", 0),
        exhausted_searches=getattr(workload, "exhausted", 0),
        schema_checks=getattr(workload, "schema_checks", 0),
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return correct, runner, metrics, detail


def measure_traced(args, wl_cls):
    """Per-layer run: a fixed operation list, run untraced, traced and
    untraced again; the overhead is the traced time minus the mean of the
    untraced ones, which brackets it against drift and warm-up."""
    from tracing import PER_LAYER, Tracer

    workload = wl_cls(args.seed, smoke=args.smoke)
    inputs = [workload.next_input() for _ in range(workload.batch * workload.trace_batches)]
    runner = Runner(workload)
    runner.run(inputs[:1], timed=False)  # warm-up: lazy imports, first-use caches
    _freeze_heap()
    before_s = runner.run(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        outs, traced_s = runner.execute(inputs, tracer)
    finally:
        tracer.uninstall()
    runner.check(inputs, outs)
    after_s = runner.run(inputs)
    untraced_s = (before_s + after_s) / 2

    found = tracer.metrics()
    probes = 1 if args.smoke else IMPORT_PROBES
    for module in IMPORT_MODULES:
        found[f"{module}.import_s"] = import_seconds(module, probes)
    found["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: {"value": found.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    detail = {
        "ops": len(inputs),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "p50_vs_roadmap_ms": {
            name: {"measured": found.get(f"{name}.p50_ms"), "roadmap": ms}
            for name, ms in ROADMAP_P50_MS.items()
        },
    }
    SPANS.mkdir(exist_ok=True)
    spans_file = SPANS / f"{workload.name}-{args.seed}.jsonl"
    with open(spans_file, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    detail["spans_file"] = str(spans_file.relative_to(ROOT))
    return runner.failed == 0, runner, metrics, detail


def write_golden(wl_cls):
    workload = wl_cls(DEFAULT_SEED)
    runner = Runner(workload, workload.golden_ops)
    _finish_digest(runner, workload)
    if runner.failed:
        raise SystemExit(f"not writing a golden digest over failing outputs: {runner.problems}")
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    entry = {"seed": DEFAULT_SEED, "ops": runner.digest_ops, "sha256": runner.digest.hexdigest()}
    if workload.name == "o5-gate":
        entry["fingerprint"] = fingerprint()
    data[workload.name] = entry
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps({workload.name: entry}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scale, for the smoke test")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "su3orbifolds" / "__init__.py").is_file():
        print(f"error: no su3orbifolds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl_cls = WORKLOADS[args.workload]
    if args.write_golden:
        write_golden(wl_cls)
        return 0
    measure_fn = measure_traced if args.trace else measure
    correct, runner, metrics, detail = measure_fn(args, wl_cls)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        problems=runner.problems,
        environment=environment(),
    )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
