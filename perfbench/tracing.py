"""Span tracer for the per-layer run of the benchmark.

The tracer wraps the public functions of each su3orbifolds module and
rebinds the wrapper in every module namespace that holds the original, so
``o5.horizontal_basis_O5`` and ``cli.singular_report`` are traced as well
as calls inside the defining module.  Each call records a span
``[parent, name, op, start, end]``; a span's self time is its duration
minus the durations of its child spans.  Counts are recorded at the same
boundaries: the result of ``lattice.feasibility`` and
``o5.distance_to_torus``, exceptions such as ``ExhaustedBound``, the
``OptimizeResult`` of the ``minimize`` bound in ``o5``, and the
``numpy.linalg.eigh`` calls made inside each span.

Nothing in the package is edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import su3orbifolds
from su3orbifolds import cli, curvature, eschenburg6, eschenburg7, lattice, o5, special, su3

LAYERS = (lattice, eschenburg7, eschenburg6, curvature, special, su3, o5, cli)

# Algebra primitives called hundreds of times per sampled point or per
# objective evaluation.  A wrapper would cost more than they do, so their
# time stays in the self time of their caller.
PRIMITIVES = {
    "su3": {"inner", "norm2", "bracket", "project_K", "inner_nu", "coords", "su3_basis"},
    "o5": {"torus_point"},
    "eschenburg7": {"permute"},
    "eschenburg6": {"vertex_order_formula"},
}

# o5_verify treats a sample as off the torus above this quotient distance
OFF_TORUS_DISTANCE = 0.05

# Per-layer metrics of the traced run, with units.  Every workload reports
# all of them; a layer the workload does not reach reads 0.
PER_LAYER = (
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.run.total_s", "s"),
    ("cli.import_s", "s"),
    ("su3.import_s", "s"),
    ("o5.import_s", "s"),
    ("lattice.snf2.calls", "count"),
    ("lattice.snf2.self_s", "s"),
    ("lattice.kernel_group.calls", "count"),
    ("lattice.kernel_group.self_s", "s"),
    ("lattice.feasibility.calls", "count"),
    ("lattice.feasibility.self_s", "s"),
    ("lattice.feasibility.feasible_ratio", "ratio"),
    ("eschenburg6.kernel_of_action.calls", "count"),
    ("eschenburg6.kernel_of_action.self_s", "s"),
    ("eschenburg6.effectivize.calls", "count"),
    ("eschenburg6.effectivize.self_s", "s"),
    ("eschenburg6.singular_report.calls", "count"),
    ("eschenburg6.singular_report.self_s", "s"),
    ("eschenburg6.cohom1_tables.calls", "count"),
    ("eschenburg6.cohom1_tables.self_s", "s"),
    ("eschenburg7.positive7.calls", "count"),
    ("eschenburg7.positive7.self_s", "s"),
    ("eschenburg7.cohom1_match.self_s", "s"),
    ("curvature.flat_witness.calls", "count"),
    ("curvature.flat_witness.self_s", "s"),
    ("curvature.repar_normal_form.self_s", "s"),
    ("curvature.find_circle.calls", "count"),
    ("curvature.find_circle.self_s", "s"),
    ("curvature.find_circle.candidates_per_call", "count"),
    ("curvature.find_circle.exhausted", "count"),
    ("special.weighted_cp.self_s", "s"),
    ("special.wu_quotient.self_s", "s"),
    ("su3.horizontal_basis_O5.calls", "count"),
    ("su3.horizontal_basis_O5.self_s", "s"),
    ("su3.haar_su3.calls", "count"),
    ("su3.haar_su3.self_s", "s"),
    ("o5.distance_to_torus.calls", "count"),
    ("o5.distance_to_torus.self_s", "s"),
    ("o5.distance_to_torus.p50_ms", "ms"),
    ("o5.distance_to_torus.nfev_per_call", "count"),
    ("o5.distance_to_torus.unconverged_ratio", "ratio"),
    ("o5.distance_to_torus.off_torus_ratio", "ratio"),
    ("o5.min_flatness.calls", "count"),
    ("o5.min_flatness.self_s", "s"),
    ("o5.min_flatness.p50_ms", "ms"),
    ("o5.min_flatness.eigh_calls_per_call", "count"),
    ("o5.flat_plane_at_torus.calls", "count"),
    ("o5.flat_plane_at_torus.self_s", "s"),
    ("o5.plane_angle.calls", "count"),
    ("o5.plane_angle.self_s", "s"),
    ("o5.o5_verify.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # [parent index or -1, name, op, start, end]
        self.stack = []  # indices of the open spans
        self.op = -1  # index of the benchmark operation being run
        self.counts = Counter()
        self.minimize_results = []  # (enclosing span name, nfev, success)
        self._restore = []

    def install(self):
        wrappers = {}
        for mod in LAYERS:
            skip = PRIMITIVES.get(_short(mod), set())
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    wrappers[fn] = self._span(f"{_short(mod)}.{attr}", fn)
        for mod in (su3orbifolds, *LAYERS):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])
        self._rebind(o5, "minimize", self._observe_minimize(o5.minimize))
        self._rebind(np.linalg, "eigh", self._count_calls("eigh", np.linalg.eigh))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _rebind(self, mod, attr, value):
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _innermost(self):
        return self.spans[self.stack[-1]][1] if self.stack else None

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, name, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
            if name == "lattice.feasibility" and result is not None:
                counts[f"{name}:feasible"] += 1
            elif name == "o5.distance_to_torus" and result > OFF_TORUS_DISTANCE:
                counts[f"{name}:off_torus"] += 1
            return result

        return traced

    def _observe_minimize(self, fn):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.minimize_results.append((self._innermost(), int(res.nfev), bool(res.success)))
            return res

        return observed

    def _count_calls(self, what, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[f"{self._innermost()}:{what}"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- summary ----------------------------------------------------------

    def layer_stats(self):
        """name -> {calls, total_s, self_s, durations} over all spans."""
        child = [0.0] * len(self.spans)
        for parent, _name, _op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for i, (_parent, name, _op, start, end) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
        return stats

    def metrics(self):
        """Every per-layer metric the spans and counts give, by name."""
        stats = self.layer_stats()
        out = {}
        for name, s in stats.items():
            out[f"{name}.calls"] = s["calls"]
            out[f"{name}.self_s"] = s["self_s"]
            out[f"{name}.total_s"] = s["total_s"]
            out[f"{name}.p50_ms"] = 1e3 * statistics.median(s["durations"])
        calls = lambda name: stats[name]["calls"] if name in stats else 0  # noqa: E731

        n = calls("lattice.feasibility")
        out["lattice.feasibility.feasible_ratio"] = _ratio(
            self.counts["lattice.feasibility:feasible"], n
        )

        circle_spans = {
            i for i, sp in enumerate(self.spans) if sp[1] == "curvature.find_circle"
        }
        candidates = sum(
            1 for sp in self.spans if sp[1] == "eschenburg7.positive7" and sp[0] in circle_spans
        )
        out["curvature.find_circle.candidates_per_call"] = _ratio(candidates, len(circle_spans))
        out["curvature.find_circle.exhausted"] = self.counts[
            "curvature.find_circle:raised:ExhaustedBound"
        ]

        n = calls("o5.distance_to_torus")
        runs = [r for r in self.minimize_results if r[0] == "o5.distance_to_torus"]
        out["o5.distance_to_torus.nfev_per_call"] = _ratio(sum(r[1] for r in runs), n)
        out["o5.distance_to_torus.unconverged_ratio"] = _ratio(
            sum(1 for r in runs if not r[2]), len(runs)
        )
        out["o5.distance_to_torus.off_torus_ratio"] = _ratio(
            self.counts["o5.distance_to_torus:off_torus"], n
        )
        out["o5.min_flatness.eigh_calls_per_call"] = _ratio(
            self.counts["o5.min_flatness:eigh"], calls("o5.min_flatness")
        )
        out["trace.spans"] = len(self.spans)
        return out
