"""warpgeo benchmark: one seeded, single-client, closed-loop workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 18 --trace 0

Workloads: ``atlas`` (two-point problems), ``rays`` (geodesic integration
and escape), ``fields`` (curvature, Kahler identities, classify, Riccati)
and ``cli_cold`` (one fresh ``python -m warpgeo.cli`` process per task).
Each task is sent only after the previous one returned, and every output
is checked against an oracle (see workloads.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of tasks untraced and then traced, and prints the per-layer metrics
plus the tracing overhead.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when any output contradicts its oracle; ``failed``
also counts tasks that raised or gave no answer where one is promised.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("atlas", "rays", "fields", "cli_cold")

# Fresh interpreters timed per run for setup_s, spread evenly over the
# task executions; the median is reported.
SETUP_SAMPLES = 8
# Passes over the run's task list; a task's latency is its fastest pass.
# A cold CLI task takes about a second, so cli_cold runs each task once.
PASSES = {"atlas": 8, "rays": 8, "fields": 8, "cli_cold": 1}
# Whole rounds of tasks (workloads.ROUND_SIZE) per run at --seconds 18,
# scaled linearly for other budgets.  A fixed count, not a time-bounded
# one, so a run on a slow machine or a faster program measures the same
# tasks; on a 2-vCPU Xeon at 2.1 GHz a run takes about --seconds plus
# eight set-up times.
NOMINAL_SECONDS = 18.0
ROUNDS = {"atlas": 6, "rays": 16, "fields": 2, "cli_cold": 2}
# Reference work timed between tasks (see reference_time): its fastest
# time on the machine the bounds were set on.  A pass whose fastest
# reference sample is slower than this met no fast phase, and its times
# are scaled back by the ratio.
REF_S = 7.9e-3
REF_EVERY_S = 0.25
# Relative nudge of the inputs per repeated pass (see workloads.NudgedRng).
NUDGE = 1e-9
# Tasks in the traced run: a fixed count, so its counters are deterministic.
TRACE_TASKS = {"atlas": 150, "rays": 150, "fields": 46, "cli_cold": 9}

E2E_UNITS = {
    "setup_s": "s",
    "throughput_tasks_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "warp.domain_checks": "count",
    "warp.points_built": "count",
    "warp.self_s": "s",
    "geometry.vectors_built": "count",
    "geometry.oracle_calls": "count",
    "geometry.self_s": "s",
    "isometry.classify_s": "s",
    "isometry.self_s": "s",
    "riccati.busy_s": "s",
    "riccati.ivp_s": "s",
    "riccati.rhs_evals": "count",
    "riccati.accepted_steps": "count",
    "riccati.grid_points": "count",
    "geodesics.busy_s": "s",
    "geodesics.ivp_s": "s",
    "geodesics.rhs_evals": "count",
    "geodesics.accepted_steps": "count",
    "geodesics.rhs_per_step": "ratio",
    "geodesics.escapes": "count",
    "geodesics.runtime_warnings": "count",
    "geodesics.max_speed_drift": "1",
    "connect.busy_s": "s",
    "connect.self_s": "s",
    "connect.scan_evals": "count",
    "connect.brentq_iters": "count",
    "connect.replays": "count",
    "connect.replay_retries": "count",
    "connect.exhausted": "count",
    "connect.found_ratio": "ratio",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_numpy_s": "s",
    "cli.work_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# -- timing helpers -----------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def timed(task, ws) -> tuple[float, str]:
    """Run one task; return its wall time and grade."""
    t0 = time.perf_counter()
    try:
        out = task.run()
    except Exception:
        return time.perf_counter() - t0, ws.FAILED
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, task.check(out)
    except (ValueError, KeyError, TypeError, IndexError):
        return elapsed, ws.WRONG  # unparsable or malformed output


class Tally:
    """Grades of every task execution in a run."""

    def __init__(self):
        self.verdicts: list[str] = []
        self.failed = 0
        self.wrong = 0

    def add(self, verdict: str, ws) -> None:
        self.verdicts.append(verdict)
        self.failed += verdict != ws.OK
        self.wrong += verdict == ws.WRONG

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": len(self.verdicts),
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def _spring(t, y):
    return [y[1], -y[0] - 0.1 * y[1] ** 3]


def reference_time() -> float:
    """Wall time of fixed work shaped like the program's own.

    An RK45 solve with a Python right-hand side and a pure-Python loop:
    when the shared machine runs slow, this slows with the tasks.
    """
    from scipy.integrate import solve_ivp

    t0 = time.perf_counter()
    solve_ivp(_spring, (0.0, 6.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    total = 0
    for i in range(30000):
        total += i * i
    return time.perf_counter() - t0


# -- set-up ---------------------------------------------------------------------


def setup_command(workload: str) -> list[str]:
    if workload == "cli_cold":
        return [sys.executable, "-c", "import warpgeo.cli"]
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads as ws; "
        f"ws.run_task(next(ws.make_tasks({workload!r}, 0)))"
    )
    return [sys.executable, "-c", code]


def measure_setup(workload: str, ws) -> float:
    """Wall time of one fresh interpreter that makes the workload ready.

    Ready means ``import warpgeo``, warp construction and one warm-up task;
    for cli_cold it is ``import warpgeo.cli``.
    """
    t0 = time.perf_counter()
    proc = ws.run_child(setup_command(workload))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr}")
    return elapsed


def run_untraced(workload: str, seed: int, seconds: float, ws) -> dict:
    """Closed loop over a fixed number of passes; latencies are best-of-passes.

    Each pass runs the seed's first ``n`` tasks in order; pass ``k`` builds
    them with an input nudge of ``k * NUDGE`` so no pass repeats an
    argument bit for bit.  A reference kernel timed about every
    ``REF_EVERY_S`` of task time detects a pass that met no fast phase of
    the shared machine, and that pass's times are scaled back by its
    slowdown.  A task's latency is then its fastest pass; throughput is
    the tasks that passed in every pass per second of those latencies.
    Every pass is checked and counted.  Set-up samples are spread evenly
    over the executions and scaled with the pass they fall in.
    """
    passes = PASSES[workload]
    rounds = max(1, round(ROUNDS[workload] * seconds / NOMINAL_SECONDS))
    n = ws.ROUND_SIZE[workload] * rounds
    setup_at = {j * n * passes // SETUP_SAMPLES for j in range(SETUP_SAMPLES)}
    best, failed, setups, scales = [math.inf] * n, [False] * n, [], []
    tally = Tally()
    for k in range(passes):
        refs, since_ref = [reference_time()], 0.0
        pass_setups, latencies = [], []
        for i, task in enumerate(_take(ws.make_tasks(workload, seed, nudge=k * NUDGE), n)):
            if k * n + i in setup_at:
                pass_setups.append(measure_setup(workload, ws))
                since_ref += pass_setups[-1]
            if since_ref >= REF_EVERY_S:
                refs.append(reference_time())
                since_ref = 0.0
            elapsed, verdict = timed(task, ws)
            latencies.append(elapsed)
            failed[i] |= verdict != ws.OK
            since_ref += elapsed
            tally.add(verdict, ws)
        refs.append(reference_time())
        # A pass whose fastest reference sample is slower than REF_S met no
        # fast phase: its times are scaled back by the ratio (never up).
        scales.append(min(1.0, REF_S / min(refs)))
        setups += [scales[-1] * t for t in pass_setups]
        best = [min(b, scales[-1] * t) for b, t in zip(best, latencies)]
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    pct, tail_s = tail(best)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_tasks_s": (n - sum(failed)) / sum(best),
        "task_p50_ms": 1e3 * statistics.median(best),
        "task_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    attempted = len(tally.verdicts)
    print(f"workload {workload} seed {seed}: {n} tasks x {passes} passes, "
          f"{tally.failed} failed, {tally.wrong} wrong; times of each pass scaled by "
          + " ".join(f"{scale:.3f}" for scale in scales))
    for name, unit in E2E_UNITS.items():
        note = f"  (p{pct:.2f} of {len(best)} tasks)" if name == "task_tail_ms" else ""
        print(f"  {name:20s} {metrics[name]:14.6g} {unit}{note}")
    print(f"  {'error_rate':20s} {tally.failed / attempted:14.6g} ratio  "
          f"({tally.failed}/{attempted})")
    return tally.result(metrics, E2E_UNITS)


# -- traced run -------------------------------------------------------------------


def import_breakdown(stderr: str) -> dict:
    """Seconds spent importing warpgeo, and the scipy and numpy shares of it.

    Parses ``-X importtime`` lines (children are printed before their
    parent, indented two spaces per level).  A warpgeo entry counts when no
    ancestor is a warpgeo module; a scipy or numpy entry counts when no
    ancestor is a scipy or numpy module, so numpy modules that scipy pulls
    in are scipy's share and the two shares never overlap.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(cumulative)))
    totals = {"warpgeo": 0, "scipy": 0, "numpy": 0}
    stack: list[str] = []  # top-level package of each open ancestor
    for level, name, cumulative in reversed(rows):
        del stack[level:]
        top = name.split(".", 1)[0]
        rivals = ("warpgeo",) if top == "warpgeo" else ("scipy", "numpy")
        if top in totals and not any(a in rivals for a in stack):
            totals[top] += cumulative
        stack.append(top)
    return {
        "cli.import_s": totals["warpgeo"] * 1e-6,
        "cli.import_scipy_s": totals["scipy"] * 1e-6,
        "cli.import_numpy_s": totals["numpy"] * 1e-6,
    }


class TracedCli:
    """Runs each CLI task as a traced child and collects its layer data."""

    def __init__(self, seed: int, ws):
        self.ws = ws
        self.seed = seed
        self.parts: list[dict] = []

    def __call__(self, argv: list[str]):
        from cli_child import MARKER

        spans = OUT_DIR / f"trace-cli_cold-seed{self.seed}-{len(self.parts)}.npz"
        proc = self.ws.run_child(
            [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py"),
             str(spans), *argv])
        body, found, raw = proc.stderr.rpartition("\n" + MARKER)
        if not found:  # the child died before reporting
            body, raw = proc.stderr, "{}"
        cli_err = "".join(ln for ln in body.splitlines(keepends=True)
                          if not ln.startswith("import time:"))
        part = json.loads(raw)
        part.update(import_breakdown(body))
        part["cli.bytes_out"] = len(proc.stdout.encode()) + len(cli_err.encode())
        self.parts.append(part)
        return self.ws.CliOutput(proc.returncode, proc.stdout, cli_err)


def layer_metrics(raw: dict) -> dict:
    get = raw.get
    steps = get("geodesics.accepted_steps", 0)
    searched = get("connect.calls", 0) - get("connect.threshold", 0)
    return {
        "warp.domain_checks": get("calls:warp.Domain.require", 0),
        "warp.points_built": get("warp.points_built", 0),
        "warp.self_s": get("warp.self_s", 0.0),
        "geometry.vectors_built": get("geometry.vectors_built", 0),
        "geometry.oracle_calls": get("calls:geometry.curvature_oracle", 0),
        "geometry.self_s": get("geometry.self_s", 0.0),
        "isometry.classify_s": get("isometry.classify_s", 0.0),
        "isometry.self_s": get("isometry.self_s", 0.0),
        "riccati.busy_s": get("riccati.busy_s", 0.0),
        "riccati.ivp_s": get("riccati.solve_ivp_s", 0.0),
        "riccati.rhs_evals": get("riccati.rhs_evals", 0),
        "riccati.accepted_steps": get("riccati.accepted_steps", 0),
        "riccati.grid_points": get("riccati.grid_points", 0),
        "geodesics.busy_s": get("geodesics.busy_s", 0.0),
        "geodesics.ivp_s": get("geodesics.solve_ivp_s", 0.0),
        "geodesics.rhs_evals": get("geodesics.rhs_evals", 0),
        "geodesics.accepted_steps": steps,
        "geodesics.rhs_per_step": get("geodesics.rhs_evals", 0) / steps if steps else 0.0,
        "geodesics.escapes": get("geodesics.escapes", 0),
        "geodesics.runtime_warnings": get("geodesics.runtime_warnings", 0),
        "geodesics.max_speed_drift": get("geodesics.max_speed_drift", 0.0),
        "connect.busy_s": get("connect.busy_s", 0.0),
        "connect.self_s": get("connect.self_s", 0.0),
        "connect.scan_evals": get("connect.residual_evals", 0) - get("connect.brentq_calls", 0),
        "connect.brentq_iters": get("connect.brentq_iters", 0),
        "connect.replays": get("connect.replays", 0),
        "connect.replay_retries": get("connect.replay_retries", 0),
        "connect.exhausted": get("connect.exhausted", 0),
        "connect.found_ratio": get("connect.found", 0) / searched if searched else 0.0,
        "cli.import_s": get("cli.import_s", 0.0),
        "cli.import_scipy_s": get("cli.import_scipy_s", 0.0),
        "cli.import_numpy_s": get("cli.import_numpy_s", 0.0),
        "cli.work_s": get("cli.work_s", 0.0),
        "cli.bytes_out": get("cli.bytes_out", 0),
        "trace.spans": get("trace.spans", 0),
    }


def run_pass(tasks, tally: Tally, ws) -> float:
    """Run the tasks once in order; return the summed task wall time."""
    total = 0.0
    for task in tasks:
        elapsed, verdict = timed(task, ws)
        total += elapsed
        tally.add(verdict, ws)
    return total


def traced_layers(workload: str, seed: int, n_tasks: int, ws) -> tuple[dict, Tally, float]:
    """Run the first ``n_tasks`` tasks of the seed under the tracer.

    Returns the raw layer data, the tally of the traced tasks and their
    summed wall time.
    """
    from tracer import Tracer, merge_raw

    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    if workload == "cli_cold":
        cli = TracedCli(seed, ws)
        busy = run_pass(_take(ws.make_tasks(workload, seed, cli), n_tasks), tally, ws)
        raw = merge_raw(cli.parts)
        raw["cli.work_s"] = busy - raw["cli.import_s"]
        return raw, tally, busy
    tasks = _take(ws.make_tasks(workload, seed), n_tasks)
    with Tracer() as tracer:
        busy = run_pass(tasks, tally, ws)
    tracer.save(OUT_DIR / f"trace-{workload}-seed{seed}.npz")
    raw = tracer.raw()
    # Import cost of this workload's set-up: one cold `import warpgeo`.
    proc = ws.run_child([sys.executable, "-X", "importtime", "-c", "import warpgeo"])
    raw.update(import_breakdown(proc.stderr))
    return raw, tally, busy


def _take(stream, n: int) -> list:
    return [next(stream) for _ in range(n)]


def run_traced(workload: str, seed: int, ws) -> dict:
    n_tasks = TRACE_TASKS[workload]
    plain = run_pass(_take(ws.make_tasks(workload, seed), n_tasks), Tally(), ws)
    raw, tally, traced = traced_layers(workload, seed, n_tasks, ws)
    metrics = layer_metrics(raw)
    metrics["trace.overhead_s"] = traced - plain
    print(f"workload {workload} seed {seed}: traced {n_tasks} tasks "
          f"({plain:.4f} s untraced, {traced:.4f} s traced), "
          f"{tally.failed} failed, {tally.wrong} wrong")
    for name, unit in LAYER_UNITS.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    return tally.result(metrics, LAYER_UNITS)


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    return args


def load_workloads():
    """Import the workload module against this checkout's ``src``."""
    if not (SRC / "warpgeo" / "__init__.py").is_file():
        raise BenchError(f"no warpgeo sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    return workloads


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ws = load_workloads()
        if args.trace:
            result = run_traced(args.workload, args.seed, ws)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, ws)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
