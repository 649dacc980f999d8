"""In-memory span tracer for the benchmark's traced run.

qcrowd's pipeline looks its callees up as module-level names at call time,
so the tracer can replace those names with timing wrappers from outside,
without editing the package. Each call records a span (name, start, end,
parent span, trial id); a few wrappers also count work. The originals are
restored after every traced trial. A name that no longer exists is listed as
absent instead of failing the run.

Span names are "<layer>.<part>"; a layer's self time is the time during which
its innermost open span belongs to that layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module where the caller looks the name up, attribute, span name)
SPANS = (
    ("qcrowd.cli", "run_experiment", "cli.run"),
    ("qcrowd.cli", "parse_config", "cli.parse"),
    ("qcrowd.cli", "_write_csv", "cli.csv"),
    ("qcrowd.cli", "run_trial", "analysis.trial"),
    ("qcrowd.analysis", "run_trial", "analysis.trial"),
    ("qcrowd.analysis", "build_world", "world.build"),
    ("qcrowd.world", "check_monotonicity", "world.monotonicity"),
    ("qcrowd.assignment", "adversary_fill", "world.adversary"),
    ("qcrowd.analysis", "draw_assignment", "assignment.draw"),
    ("qcrowd.analysis", "realize_observations", "assignment.observe"),
    ("qcrowd.analysis", "draw_self_ratings", "assignment.requester"),
    ("qcrowd.analysis", "realize_requester", "assignment.requester"),
    ("qcrowd.analysis", "solve_recover_M", "solver.solve"),
    ("qcrowd.solver", "dykstra_project", "solver.dykstra"),
    ("qcrowd.solver", "_project_rows", "solver.row_proj"),
    ("qcrowd.solver", "project_nuclear_ball", "solver.nuc_proj"),
    ("qcrowd.solver", "_polish", "solver.polish"),
    ("qcrowd.solver", "feasibility_residuals", "core.feasibility"),
    ("qcrowd.analysis", "is_feasible", "core.feasibility"),
    ("qcrowd.analysis", "recover_quantile", "quantile.recover"),
    ("qcrowd.analysis", "quality_gap", "analysis.quality_gap"),
    ("qcrowd.analysis", "denoised_matrix", "analysis.denoised"),
    ("qcrowd.analysis", "operator_norm", "analysis.opnorm"),
    ("qcrowd.analysis", "monotone_transfer_gaps", "analysis.transfer"),
    ("qcrowd.analysis", "deviations", "analysis.deviations"),
    ("qcrowd.analysis", "max_set_deviation", "analysis.max_dev"),
)

_METRIC_SPANS = ("analysis.quality_gap", "analysis.denoised", "analysis.opnorm",
                 "analysis.transfer", "analysis.deviations", "analysis.max_dev")

ROOT_SPAN = "bench.trial"


def _count_nuc_active(tracer, args, result):
    # project_nuclear_ball returns its input object when it is already inside
    tracer.count("solver.nuc_active", result is not args[0])


def _count_assignment(tracer, args, result):
    tracer.count("assignment.pruned", result.pruned_rows + result.pruned_cols)
    tracer.count("assignment.cells", int(result.mask.sum()))


_RESULT_HOOKS = {
    "project_nuclear_ball": _count_nuc_active,
    "draw_assignment": _count_assignment,
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, trial id]
        self._stack = []
        self._trial = None
        self._counts = defaultdict(Counter)  # trial id -> counter
        self._patches = []
        self.absent = set()
        self.hook_errors = set()

    def count(self, key: str, n=1) -> None:
        self._counts[self._trial][key] += int(n)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1, self._trial])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            tracer.spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except AttributeError:
                    tracer.hook_errors.add(hook.__name__)
            return result
        return traced

    def _svd_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            layer = (tracer.spans[tracer._stack[-1]][0].split(".")[0]
                     if tracer._stack else "bench")
            tracer.count(layer + ".svd")
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(fn))
        self._patches.append((module, attr, fn))

    @contextmanager
    def trial(self, trial_id):
        """Install the wrappers, record one root span around the body, and
        restore the originals afterwards."""
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, name=name, attr=attr:
                        self._span_wrapper(fn, name, _RESULT_HOOKS.get(attr)))
        self._patch("numpy.linalg", "svd", self._svd_counter)
        self._trial = trial_id
        try:
            idx = self._open(ROOT_SPAN)
            self.spans[idx][1] = perf_counter()
            try:
                yield
            finally:
                self._close(idx)
        finally:
            self._trial = None
            self._stack.clear()
            while self._patches:
                module, attr, fn = self._patches.pop()
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Per-trial means of span self times and counts.

        A metric whose spans never occurred (its layer was not exercised, or
        the wrapped name is gone) is left out.
        """
        self_time = defaultdict(lambda: defaultdict(float))  # trial -> name -> s
        calls = defaultdict(Counter)                          # trial -> name -> n
        sweeps = Counter()
        for name, start, end, parent, trial in self.spans:
            dur = end - start
            self_time[trial][name] += dur
            calls[trial][name] += 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[trial][pname] -= dur
                if name == "solver.row_proj" and pname == "solver.dykstra":
                    sweeps[trial] += 1
        trials = sorted(self_time)
        seen = set().union(*(calls[t] for t in trials)) if trials else set()

        def mean(per_trial):
            return statistics.fmean(per_trial(t) for t in trials)

        def span_s(*names):
            return mean(lambda t: sum(self_time[t][n] for n in names))

        def layer_s(layer):
            return mean(lambda t: sum(v for n, v in self_time[t].items()
                                      if n.startswith(layer + ".")))

        def total(key, t_counts):
            return sum(t_counts[t][key] for t in trials)

        out = {}

        def put(name, unit, needs, value):
            if all(n in seen for n in needs):
                out[name] = (value(), unit)

        put("solver.s", "s", ["solver.solve"], lambda: layer_s("solver"))
        put("solver.row_proj_s", "s", ["solver.row_proj"],
            lambda: span_s("solver.row_proj"))
        put("solver.row_proj_calls", "count", ["solver.row_proj"],
            lambda: mean(lambda t: calls[t]["solver.row_proj"]))
        put("solver.nuc_proj_s", "s", ["solver.nuc_proj"],
            lambda: span_s("solver.nuc_proj"))
        put("solver.nuc_proj_calls", "count", ["solver.nuc_proj"],
            lambda: mean(lambda t: calls[t]["solver.nuc_proj"]))
        if "_count_nuc_active" not in self.hook_errors:
            put("solver.nuc_active_frac", "ratio", ["solver.nuc_proj"],
                lambda: total("solver.nuc_active", self._counts)
                / total("solver.nuc_proj", calls))
        if "numpy.linalg.svd" not in self.absent:
            put("solver.svd_count", "count", ["solver.solve"],
                lambda: mean(lambda t: self._counts[t]["solver.svd"]))
        put("solver.dykstra_sweeps", "count", ["solver.dykstra", "solver.row_proj"],
            lambda: mean(lambda t: sweeps[t]))
        put("solver.sweeps_per_iter", "count", ["solver.dykstra", "solver.row_proj"],
            lambda: sum(sweeps[t] for t in trials) / total("solver.dykstra", calls))
        put("solver.polish_s", "s", ["solver.polish"], lambda: span_s("solver.polish"))
        put("world.s", "s", ["world.build"], lambda: layer_s("world"))
        put("world.monotonicity_s", "s", ["world.monotonicity"],
            lambda: span_s("world.monotonicity"))
        put("world.adversary_s", "s", ["world.adversary"],
            lambda: span_s("world.adversary"))
        put("assignment.draw_s", "s", ["assignment.draw"],
            lambda: span_s("assignment.draw"))
        put("assignment.observe_s", "s", ["assignment.observe"],
            lambda: span_s("assignment.observe"))
        put("assignment.requester_s", "s", ["assignment.requester"],
            lambda: span_s("assignment.requester"))
        if "_count_assignment" not in self.hook_errors:
            for key in ("assignment.pruned", "assignment.cells"):
                put(key, "count", ["assignment.draw"],
                    lambda key=key: mean(lambda t: self._counts[t][key]))
        put("quantile.s", "s", ["quantile.recover"], lambda: layer_s("quantile"))
        put("core.feasibility_s", "s", ["core.feasibility"],
            lambda: span_s("core.feasibility"))
        put("core.feasibility_calls", "count", ["core.feasibility"],
            lambda: mean(lambda t: calls[t]["core.feasibility"]))
        if seen.intersection(_METRIC_SPANS):
            put("analysis.metrics_s", "s", [], lambda: span_s(*_METRIC_SPANS))
        put("analysis.opnorm_s", "s", ["analysis.opnorm"],
            lambda: span_s("analysis.opnorm"))
        put("cli.parse_s", "s", ["cli.parse"], lambda: span_s("cli.parse"))
        put("cli.csv_s", "s", ["cli.csv"], lambda: span_s("cli.csv"))
        put("cli.run_s", "s", ["cli.run"], lambda: span_s("cli.run"))
        put("trace.uncovered_s", "s", [ROOT_SPAN], lambda: span_s(ROOT_SPAN))
        return out

    def layer_shares(self) -> dict:
        """Share of total traced trial wall time spent in each layer's self time."""
        by_layer = Counter()
        wall = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            by_layer[name.split(".")[0]] += dur
            if parent >= 0:
                by_layer[self.spans[parent][0].split(".")[0]] -= dur
            else:
                wall += dur
        return {layer: v / wall for layer, v in sorted(by_layer.items())} if wall else {}
