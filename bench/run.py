"""qcrowd benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload readme --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all                # every workload in turn

Run from the root of a qcrowd checkout; the package is imported from its
src/ directory. A run measures set-up in fresh processes, then runs trials
one after another through cli.run_experiment: one full pass over the
workload's pool of trial seeds (derived from --seed), then on round the pool
while the next trial should end within --seconds. Every trial's output is
checked. With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 each trial runs once untraced and once traced, and the line
carries the per-layer metrics. bench/README.md explains the workloads and how
to read the output.

Exit codes: 0 success, 1 an output check failed (the result line still
prints, with "correct": false), 2 the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9

# Fresh-process set-up: import, parse and validate the config, first BLAS call.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
from qcrowd import cli
cli.parse_config(sys.argv[2])
a = np.ones((64, 64))
a @ a
print(time.perf_counter() - t0)
"""


def fail_usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_qcrowd():
    package = SRC / "qcrowd"
    if not (package / "__init__.py").is_file():
        fail_usage(f"no qcrowd package under {package}; run from a qcrowd checkout")
    sys.path.insert(0, str(SRC))
    import qcrowd
    if Path(qcrowd.__file__).resolve().parent != package.resolve():
        fail_usage(f"imported qcrowd from {qcrowd.__file__}, not from {package}")
    return qcrowd


# --------------------------------------------------------------------------
# environment stamp
# --------------------------------------------------------------------------

def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp(seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcrowd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

class Gauge:
    """Times a fixed numpy kernel that shares no code with qcrowd.

    A shared host drifts as a whole by up to +-20% over minutes, more than
    any program change worth gating. The kernel (small-array passes like the
    row projection's bisection, and an SVD like the nuclear projection)
    drifts with it, so a trial time multiplied by factor() reads as seconds
    on a host where the kernel takes REF_S.
    """

    REF_S = 3.6e-3   # kernel median on a 2-vCPU host, OpenBLAS 0.3.31, 1 thread
    SHARE = 0.08     # gauge time kept at this share of the measured time
    WINDOW_S = 2.0   # a trial is scaled by the samples taken this close to it
    WARM_UP_S = 0.5

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._x = rng.random((60, 200)) * 2.0
        self._y = rng.random((150, 150))
        self.samples = []   # kernel durations
        self.times = []     # their start times
        end = perf_counter() + self.WARM_UP_S
        while perf_counter() < end:
            self._kernel()

    def _kernel(self) -> None:
        np, x = self._np, self._x
        lo, hi = np.zeros(x.shape[0]), x.max(axis=1)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            big = np.clip(x - mid[:, None], 0.0, 1.0).sum(axis=1) > 40.0
            lo, hi = np.where(big, mid, lo), np.where(big, hi, mid)
        np.linalg.svd(self._y, compute_uv=False)

    def keep_up(self, measured_s: float) -> None:
        """Sample at least once, and until the gauge has run for SHARE of
        measured_s."""
        while True:
            start = perf_counter()
            self._kernel()
            self.times.append(start)
            self.samples.append(perf_counter() - start)
            if sum(self.samples) >= self.SHARE * measured_s:
                return

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        return self.REF_S / statistics.median(self.samples[lo:hi])


# --------------------------------------------------------------------------
# trials and their checks
# --------------------------------------------------------------------------

class Capture:
    """Keeps the solver's input and output and the trial result of the
    latest trial, which the output checks need and the public calls do not
    all return. Installed for the whole run; restore() puts the originals back."""

    def __init__(self, analysis, cli, solver):
        self.clear()
        self._patches = []
        solve = analysis.solve_recover_M

        def capture_solve(ratings, *args, **kwargs):
            self.ratings = ratings.values
            try:
                matrix, report = solve(ratings, *args, **kwargs)
            except solver.NotConverged as exc:
                self.matrix, self.report = exc.matrix.M, exc.report
                raise
            self.matrix, self.report = matrix.M, report
            return matrix, report

        self._patch(analysis, "solve_recover_M", capture_solve)
        trial = cli.run_trial

        def capture_trial(*args, **kwargs):
            self.result = trial(*args, **kwargs)
            return self.result

        self._patch(cli, "run_trial", capture_trial)

    def _patch(self, module, attr, fn):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def clear(self):
        self.ratings = self.matrix = self.report = self.result = None

    def restore(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)


class Bench:
    def __init__(self, workload, seed: int, seconds: int, traced: bool):
        from qcrowd import analysis, cli, core, solver
        self.analysis, self.cli, self.core, self.solver = analysis, cli, core, solver
        self.wl = workload
        self.seeds = workload.trial_seeds(seed)
        self.seconds = seconds
        self.cfg = cli.parse_config(workload.config)
        self.rho = self.cfg.rho * workload.rho_scale
        self.out_dir = OUT / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.problems = []        # (trial seed, message)
        self.walls = []           # untraced mode: (start, wall time) of completed trials
        self.gauge = None if traced else Gauge()
        self.pairs = []           # traced mode: (untraced, traced) wall times
        self.records = {}         # trial seed -> first completed outcome

    # one trial ------------------------------------------------------------

    def _spec(self, trial_seed: int):
        """One trial as the CLI runs it: `--mode run --trials 1 --jobs 1`."""
        cfg_path = self.out_dir / "exp.cfg"
        cfg_path.write_text(self.wl.config + f"seed = {trial_seed}\n")
        return self.cli.RunSpec(mode="run", config_path=cfg_path,
                                out_dir=self.out_dir, trials=1, jobs=1,
                                allow_nonconverged=True,
                                rho_scale=self.wl.rho_scale)

    def attempt(self, trial_seed: int, traced: bool = False):
        """Run and check one trial; returns its wall time, None if it failed."""
        self.attempted += 1
        self.capture.clear()
        spec = self._spec(trial_seed)
        ctx = self.tracer.trial(self.attempted) if traced else nullcontext()
        try:
            with ctx:
                start = perf_counter()
                code = self.cli.run_experiment(spec)
                wall = perf_counter() - start
            self.last_start = start
        except Exception as exc:  # noqa: BLE001 - a failed trial is counted, not fatal
            self.problems.append((trial_seed, f"raised {type(exc).__name__}: {exc}"))
            return None
        if code != 0:
            self.problems.append((trial_seed, f"run_experiment returned {code}"))
            return None
        csv_hash = hashlib.sha256((self.out_dir / "results.csv").read_bytes()).hexdigest()
        problems = self.check(trial_seed, self.capture.result, csv_hash)
        if problems:
            self.problems.extend((trial_seed, p) for p in problems)
            return None
        return wall

    def check(self, trial_seed, result, csv_hash) -> list:
        first = self.records.get(trial_seed)
        if first is not None:
            # a repeated trial seed must reproduce the checked outcome exactly
            problems = []
            if result != first["result"]:
                problems.append("repeat of the trial seed gave a different result")
            if csv_hash != first["csv"]:
                problems.append("repeat of the trial seed gave different results.csv bytes")
            return problems
        cap = self.capture
        if result is None or cap.matrix is None:
            return ["trial result or solver output not captured"]
        cfg = self.cfg
        problems = []
        res = self.core.feasibility_residuals(cap.matrix, cfg.beta_m, self.rho)
        for key, tol in (("box", self.core.TOL_FEAS), ("row", self.core.TOL_FEAS),
                         ("nuc", self.core.TOL_NUC)):
            if not res[key] <= tol:
                problems.append(f"{key} residual {res[key]:.3g} exceeds {tol:g}")
        if result.selection_size > cfg.beta_m:
            problems.append(f"selection size {result.selection_size} > beta_m {cfg.beta_m}")
        A = cap.ratings
        greedy = float(A.ravel() @ self.solver.greedy_row_oracle(A, cfg.beta_m).ravel())
        if result.solver_obj > greedy + 1e-9 * abs(greedy):
            problems.append(f"objective {result.solver_obj!r} above the LP bound {greedy!r}")
        if problems:
            return problems
        trace = tuple(getattr(cap.report, "objective_trace", ()))
        self.records[trial_seed] = {
            "result": result,
            "csv": csv_hash,
            "obj_ratio": result.solver_obj / greedy,
            "improving": sum(1 for i, v in enumerate(trace) if i == 0 or v > trace[i - 1]),
            "trace_len": len(trace),
        }
        return []

    # the closed loop ------------------------------------------------------

    def step(self, t: int) -> None:
        trial_seed = self.seeds[t % len(self.seeds)]
        if self.tracer is None:
            self.gauge.keep_up(sum(w for _, w in self.walls))
            wall = self.attempt(trial_seed)
            if wall is not None:
                self.walls.append((self.last_start, wall))
            return
        # alternate the order so warm-up and drift hit both sides alike
        traced_first = t % 2 == 1
        walls = {traced_first: self.attempt(trial_seed, traced_first)}
        walls[not traced_first] = self.attempt(trial_seed, not traced_first)
        if None not in walls.values():
            self.pairs.append((walls[False], walls[True]))

    def run(self) -> None:
        """One full pass over the pool, then more trials, cycling through the
        pool, while the next one is expected to end before the deadline."""
        self.capture = Capture(self.analysis, self.cli, self.solver)
        try:
            start = perf_counter()
            deadline = start + self.seconds
            t = 0
            while True:
                self.step(t)
                t += 1
                now = perf_counter()
                if t >= len(self.seeds) and now + (now - start) / t > deadline:
                    break
            if self.tracer is None:
                self.gauge.keep_up(sum(w for _, w in self.walls))
            if t == len(self.seeds) and self.tracer is None:
                self.attempt(self.seeds[0])  # untimed repeat for the byte check
        finally:
            self.capture.restore()

    # metrics --------------------------------------------------------------

    def _records(self):
        return [self.records[s] for s in self.seeds if s in self.records]

    def reference_walls(self) -> list:
        """Trial times scaled to the reference host speed."""
        return [wall * self.gauge.factor(start, start + wall) for start, wall in self.walls]

    def end_to_end(self, setup_s: float) -> dict:
        recs = self._records()
        walls = self.reference_walls()
        return {
            "trials_per_s": (len(walls) / sum(walls) if walls else 0.0, "trials/s"),
            "trial_p50_s": (statistics.median(walls) if walls else 0.0, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "obj_ratio": (statistics.median(r["obj_ratio"] for r in recs) if recs else 0.0,
                          "ratio"),
            "passed_frac": ((self.attempted - len(self.problems)) / self.attempted, "ratio"),
        }

    def informational(self, setup_raw_s: float) -> dict:
        recs = self._records()
        raw = [wall for _, wall in self.walls]
        info = {
            "trials_per_s_raw": (len(raw) / sum(raw) if raw else 0.0, "trials/s"),
            "trial_p50_s_raw": (statistics.median(raw) if raw else 0.0, "s"),
            "setup_s_raw": (setup_raw_s, "s"),
            "converged_frac": (statistics.fmean(
                r["result"].solver_converged for r in recs) if recs else 0.0, "ratio"),
            "failed_frac": (len(self.problems) / self.attempted, "ratio"),
            "trials_timed": (len(self.walls), "count"),
            "pool": (len(self.seeds), "count"),
        }
        walls = self.reference_walls()
        n = len(walls)
        for pct in (99, 95, 90):
            if n * (100 - pct) / 100 >= 10:
                q = statistics.quantiles(walls, n=100)[pct - 1]
                info[f"trial_p{pct}_s"] = (q, "s")
                break
        return info

    def per_layer(self) -> dict:
        metrics = self.tracer.layer_metrics()
        recs = self._records()
        if recs:
            results = [r["result"] for r in recs]
            metrics["solver.iters"] = (
                statistics.fmean(r.solver_iters for r in results), "count")
            if sum(r["trace_len"] for r in recs):
                metrics["solver.improving_frac"] = (
                    sum(r["improving"] for r in recs) / sum(r["trace_len"] for r in recs),
                    "ratio")
            metrics["solver.converged_frac"] = (
                statistics.fmean(r.solver_converged for r in results), "ratio")
            metrics["quantile.round_draws"] = (
                statistics.fmean(r.round_iters for r in results), "count")
            metrics["quantile.accept_frac"] = (
                sum(r.accepted for r in results) / sum(r.round_iters for r in results),
                "ratio")
            metrics["analysis.quality_gap_median"] = (
                statistics.median(r.quality_gap for r in results), "rating")
        if "world.monotonicity_s" in metrics:
            # computed, not counted: monotonicity_violation compares every
            # ordered item pair of every reliable row
            metrics["world.monotonicity_pairs"] = (
                self.cfg.alpha_n * self.cfg.m ** 2, "count")
        if self.pairs:
            metrics["trace.overhead_frac"] = (
                statistics.median(t / u for u, t in self.pairs) - 1.0, "ratio")
        return dict(sorted(metrics.items()))


def measure_setup(workload):
    """Median over fresh processes of import + config parse + first BLAS
    call: (scaled to the reference host speed, raw)."""
    gauge = Gauge()
    start = perf_counter()
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.keep_up(sum(times))
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), workload.config],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail_usage(f"set-up process failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    gauge.keep_up(sum(times))
    raw = statistics.median(times)
    return raw * gauge.factor(start, perf_counter()), raw


# workload-choice checks: what each workload was chosen to exercise
def _choice_checks(name: str, m: dict, shares: dict) -> list:
    v = {k: val for k, (val, _) in m.items()}
    try:
        if name == "readme":
            return [("solver is the largest layer share", max(shares, key=shares.get) == "solver"),
                    ("row projection is most of the solver",
                     v["solver.row_proj_s"] > 0.5 * v["solver.s"])]
        if name == "binding":
            parts = ("solver.row_proj_s", "solver.nuc_proj_s", "solver.polish_s")
            return [("nuclear projection is the largest solver part",
                     max(parts, key=v.get) == "solver.nuc_proj_s")]
        if name == "wide":
            return [("world.s within 2x of solver.s",
                     0.5 <= v["world.s"] / v["solver.s"] <= 2.0)]
    except KeyError as exc:
        return [(f"metric {exc} absent", False)]
    return []


def _print_metrics(metrics: dict, note: str = "") -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}{note}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    os.environ.pop("QCROWD_SEED", None)  # the CLI would let it override the config
    # One client, one thread: on two shared cores a second OpenBLAS thread
    # mostly spins against the client and made every workload slower and
    # noisier. Set before numpy loads; set-up processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_qcrowd()
    OUT.mkdir(exist_ok=True)
    setup_s, setup_raw_s = measure_setup(workload)
    bench = Bench(workload, args.seed, args.seconds, traced=bool(args.trace))
    env = env_stamp(args.seed)
    bench.run()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"trial seeds {bench.seeds[0]}..{bench.seeds[-1]}")
    print("env " + json.dumps(env))
    report = {"workload": workload.name, "env": env, "trace": args.trace,
              "problems": bench.problems}
    if args.trace:
        metrics = bench.per_layer()
        shares = bench.tracer.layer_shares()
        checks = _choice_checks(workload.name, metrics, shares)
        print("per-layer metrics (per trial, self time):")
        _print_metrics(metrics)
        print("layer shares of traced trial wall time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        for desc, ok in checks:
            print(f"  workload choice: {desc}: {'holds' if ok else 'DOES NOT HOLD'}")
        absent = sorted(bench.tracer.absent | bench.tracer.hook_errors)
        if absent:
            print("absent (not wrapped): " + ", ".join(absent))
        spans_path = OUT / f"spans_{workload.name}_seed{args.seed}.json"
        bench.tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        report.update(shares=shares, choice_checks=checks, absent=absent)
    else:
        metrics = bench.end_to_end(setup_s)
        print("end-to-end metrics:")
        _print_metrics(metrics)
        info = bench.informational(setup_raw_s)
        _print_metrics(info, "  (informational)")
        report["informational"] = {k: v for k, (v, _) in info.items()}
    for trial_seed, problem in bench.problems:
        print(f"FAILED trial seed {trial_seed}: {problem}")

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": len(bench.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(result)
    path = OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, so set-up and peak memory stay
    per workload; ends with one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        worst = max(worst, done.returncode)
        if done.returncode == 2:
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    if worst == 2:
        return 2
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail_usage("--seconds must be at least 1")
    if args.seed < 0:
        fail_usage("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
