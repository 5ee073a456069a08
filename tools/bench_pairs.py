"""Alternated parent/change benchmark pairs, summarised as a BENCH_*.json file.

Usage (from the repository root)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload atlas:10 --workload rays:5 --held-out atlas:104729 \\
        --claimed atlas:throughput_tasks_s --control atlas:5 --what "..." \\
        --out BENCH_label.json

PARENT_DIR and CHANGE_DIR are two checkouts (for example ``git archive``
copies of two commits).  ``--workload W:N`` runs N pairs of the checkouts'
unchanged ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
with seeds K = 1..N and S the ``run_seconds`` of CHANGE_DIR/BENCHMARK.json;
odd pairs run the parent first, even pairs the change first.  Each run's last stdout line is its JSON result.  ``--held-out W:K``
adds one pair on seed K, kept apart from the medians.  ``--control W:N``
runs N pairs of the parent against a copy of it, on seeds 1..N, as a
same-code control: the workload's ``control`` block holds, per metric, the
copy's median over the parent's, the pairs the copy won, each pair's ratio
and their range, and each metric of the workload gets ``outside_control``,
whether the change's ratio lies outside that range.  The verdicts do not
read the control.  A workload or control of fewer than ``MIN_PAIRS`` pairs
gets a warning on stderr: the gain rule needs 9 wins of 10.

Per workload and end-to-end metric of CHANGE_DIR/BENCHMARK.json the file
holds each side's median and quartiles, their ratio, the pairs the change
won, a verdict (see :func:`verdict`) and every run's value, with the
machine, the Python and numpy versions, the OpenBLAS kernel and the SIMD
features numpy dispatches to, and whether ``PYTHONDONTWRITEBYTECODE`` is
set (then every CLI child compiles the package afresh).  The sides are
labelled with each checkout's short commit when it is a git checkout, else
with its directory name.  Only the standard library is imported here;
numpy is queried in a child process.

The exit status is 1 when a run, held-out pairs included, reports outputs
that are not correct, or the change failed more tasks than the parent in
the same pair; each such run gets one stderr line after the file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10
RUN_COMMAND = "python3 perfbench/run.py --workload W --seed K --seconds {seconds:g} --trace 0"
METHOD = (
    "Alternated pairs: odd pairs run the parent first, even pairs the change first; each "
    "side runs from its own checkout. Medians and inclusive quartiles over the pairs' runs; "
    "change_better_pairs counts pairs the change won. A held-out seed is one pair outside "
    "the medians. verdict: gain when the change won at least 9 of 10 pairs and its median "
    "is better by more than the parent's interquartile range; regression when its median is "
    "worse by more than the bound (relative to the parent's median); unresolved when the "
    "parent's interquartile range is wider than the bound and not every change run beats "
    "every parent run; unchanged otherwise. A control runs the parent against a copy of "
    "itself; outside_control says whether the change's ratio lies outside the range of the "
    "control's pair ratios, and no verdict reads it."
)

# Run in a child with the benchmark's interpreter: numpy's version, the
# OpenBLAS kernel in use and the dispatched SIMD features that numpy found
# (NPY_DISABLE_CPU_FEATURES takes features off that list).
# numpy.show_runtime() names the kernel only when threadpoolctl is
# installed; otherwise the loaded OpenBLAS is asked itself.
_NUMPY_PROBE = r"""
import contextlib, ctypes, io, json, re, sys
import numpy
core = getattr(numpy, "_core", None) or numpy.core  # numpy 2 renamed numpy.core
umath = core._multiarray_umath
simd = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    numpy.show_runtime()
kernel = re.findall(r"'architecture': '([^']+)'", out.getvalue())
via = "numpy.show_runtime()"
NAMES = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
         "openblas_get_corename64_", "openblas_get_corename")
if not kernel:
    via = "the loaded OpenBLAS library"
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for lib in libs:
        dll = ctypes.CDLL(lib)
        fn = next((getattr(dll, n) for n in NAMES if hasattr(dll, n)), None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            kernel = [fn().decode()]
            break
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": (kernel[0] + " (from " + via + ")") if kernel else "unknown",
    "numpy_simd": " ".join(simd) + " (dispatched; baseline " + " ".join(umath.__cpu_baseline__) + ")",
}))
"""


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        values = values * 2  # one run is its own median and quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _better(spec: dict, change: float, parent: float) -> bool:
    return change > parent if spec["better"] == "higher" else change < parent


def verdict(spec: dict, entry: dict, runs: dict) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``unchanged`` for one
    metric's summary ``entry`` and its runs per side (see ``METHOD``).  The
    bound is relative to the parent's median, as BENCHMARK.json states it."""
    parent, change = entry["parent"], entry["change"]
    spread = parent["q3"] - parent["q1"]
    worse = change["median"] - parent["median"]  # by how much the change's median is worse
    if spec["better"] == "higher":
        worse = -worse
    allowed = spec["bound"] * abs(parent["median"])
    if 10 * entry["change_better_pairs"] >= 9 * len(runs["parent"]) and -worse > spread:
        return "gain"
    if worse > allowed:
        return "regression"
    if spread > allowed and not all(
        _better(spec, c, p) for c in runs["change"] for p in runs["parent"]
    ):
        return "unresolved"
    return "unchanged"


def summarize(seeds: list, pairs: list, e2e: list) -> dict:
    """One workload's entry from its runs.

    ``pairs`` holds one ``{"parent": result, "change": result}`` per seed,
    each result the JSON object ``perfbench/run.py`` prints last; ``e2e`` is
    BENCHMARK.json's ``end_to_end`` list.
    """
    out = {
        "seeds": list(seeds),
        "pairs": len(pairs),
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
        "metrics": {},
    }
    for spec in e2e:
        name = spec["name"]
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        entry = {key: spec[key] for key in ("unit", "better", "bound")}
        entry.update({side: _quartiles(runs[side]) for side in SIDES})
        parent = entry["parent"]["median"]
        entry["change_over_parent"] = round(entry["change"]["median"] / parent, 4) if parent else None
        entry["change_better_pairs"] = sum(
            _better(spec, c, p) for p, c in zip(runs["parent"], runs["change"])
        )
        entry["verdict"] = verdict(spec, entry, runs)
        entry.update({f"{side}_runs": [round(v, 6) for v in runs[side]] for side in SIDES})
        out["metrics"][name] = entry
    return out


def held_out(seed: int, pair: dict, e2e: list) -> dict:
    """The held-out pair's values per end-to-end metric."""
    out = {"seed": seed}
    for spec in e2e:
        name = spec["name"]
        out[name] = {side: round(pair[side]["metrics"][name]["value"], 6) for side in SIDES}
    return out


def control(pairs: list, e2e: list) -> dict:
    """The same-code control of one workload from its pairs, each
    ``{"parent": result, "change": result}`` with the parent's copy as the
    change: per end-to-end metric the copy's median over the parent's, the
    pairs the copy won, each pair's ratio and the range of those ratios."""
    out = {"pairs": len(pairs), "metrics": {}}
    for spec in e2e:
        name = spec["name"]
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        parent = statistics.median(runs["parent"])
        ratios = [round(c / p, 4) for p, c in zip(runs["parent"], runs["change"]) if p]
        out["metrics"][name] = {
            "ratio": round(statistics.median(runs["change"]) / parent, 4) if parent else None,
            "copy_better_pairs": sum(
                _better(spec, c, p) for p, c in zip(runs["parent"], runs["change"])),
            "pair_ratios": ratios,
            "range": [min(ratios), max(ratios)] if ratios else None,
        }
    return out


def outside_control(entry: dict, same_code: dict) -> bool | None:
    """Whether a metric's change-over-parent ratio lies outside the range of
    its control's pair ratios; None when either is missing."""
    ratio, span = entry["change_over_parent"], same_code["range"]
    if ratio is None or span is None:
        return None
    return not span[0] <= ratio <= span[1]


def few_pairs(workload: str, pairs: int, what: str = "") -> str | None:
    """The warning for a workload or control of fewer than MIN_PAIRS pairs."""
    if pairs >= MIN_PAIRS:
        return None
    return (f"warning: {workload}{what} ran {pairs} pairs, fewer than the {MIN_PAIRS} "
            f"that the gain rule needs")


def faults(workload: str, seed: int, pair: dict) -> list[str]:
    """One line per run of the pair with wrong outputs, and one for the
    change when it failed more tasks than the parent."""
    out = [f"{workload} seed {seed} {side}: outputs not correct"
           for side in SIDES if not pair[side]["correct"]]
    failed = [pair[side]["failed"] for side in SIDES]
    if failed[1] > failed[0]:
        out.append(f"{workload} seed {seed} change: {failed[1]} failed tasks, parent {failed[0]}")
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its last JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pair(dirs: dict, workload: str, seed: int, seconds: float, parent_first: bool,
             what: str = "") -> dict:
    order = SIDES if parent_first else SIDES[::-1]
    pair = {side: run_once(dirs[side], workload, seed, seconds) for side in order}
    values = ", ".join(
        f"{side} {pair[side]['metrics']['throughput_tasks_s']['value']:.1f}" for side in SIDES
    )
    print(f"{workload}{what} seed {seed}: throughput {values}", file=sys.stderr, flush=True)
    return pair


def environment() -> dict:
    """Machine, Python, numpy, its SIMD features and BLAS kernel of the
    interpreter that runs the pairs, and whether the runs write bytecode."""
    probe = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], capture_output=True,
                           text=True, check=True)
    found = json.loads(probe.stdout.splitlines()[-1])
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    machine = f"{os.cpu_count()} CPUs, {model}, {platform.system()} {platform.machine()}"
    if os.environ.get("OPENBLAS_CORETYPE"):
        found["blas"] += f", OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"
    if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
        found["numpy_simd"] += f", NPY_DISABLE_CPU_FEATURES={os.environ['NPY_DISABLE_CPU_FEATURES']}"
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return {"machine": machine, **found,
            "PYTHONDONTWRITEBYTECODE": bytecode if bytecode else None}


def label(checkout: Path) -> str:
    """The short commit of a git checkout, else the directory's name."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel",
                               "--short", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git
        proc = None
    if proc is not None and proc.returncode == 0:
        top, commit = proc.stdout.splitlines()
        if Path(top) == checkout.resolve():  # not a plain directory inside a checkout
            return commit
    return checkout.resolve().name


def dumps(obj, indent: int = 0) -> str:
    """JSON with flat objects and lists of scalars on one line, the rest one key a line."""
    pad, inner = " " * indent, " " * (indent + 1)
    if isinstance(obj, dict) and obj and not all(
        isinstance(v, (int, float, bool)) or v is None for v in obj.values()
    ):
        items = ",\n".join(f"{inner}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        items = ",\n".join(inner + dumps(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return json.dumps(obj)


def _spec(text: str) -> tuple[str, int]:
    name, _, count = text.partition(":")
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:N with N >= 1, got {text!r}")
    return name, int(count)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", type=_spec, action="append", required=True,
                        metavar="W:N", help="run N pairs of workload W on seeds 1..N")
    parser.add_argument("--held-out", type=_spec, action="append", default=[],
                        metavar="W:K", help="one more pair of workload W on seed K")
    parser.add_argument("--control", type=_spec, action="append", default=[],
                        metavar="W:N", help="N pairs of workload W, parent against a copy "
                                            "of the parent, on seeds 1..N")
    parser.add_argument("--claimed", metavar="W:METRIC", help="the metric a gain is claimed on")
    parser.add_argument("--target", default="", help="the claimed gain, in words")
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for flag, specs in (("--held-out", args.held_out), ("--control", args.control)):
        unrun = sorted({w for w, _ in specs} - {w for w, _ in args.workload})
        if unrun:
            parser.error(f"{flag} names workloads with no --workload: {', '.join(unrun)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    e2e, seconds = bench["end_to_end"], bench["run_seconds"]
    report = {
        "what": args.what,
        "parent": label(args.parent),
        "change": label(args.change),
        "command": RUN_COMMAND.format(seconds=seconds),
        "method": METHOD,
        **environment(),
    }
    if args.claimed:
        workload, _, metric = args.claimed.partition(":")
        report["claimed"] = {"workload": workload, "metric": metric, "target": args.target}
    held, controls = dict(args.held_out), dict(args.control)
    report["workloads"] = {}
    bad, warnings = [], []
    with tempfile.TemporaryDirectory() as tmp:
        if controls:  # the same code from a second directory
            copy = Path(tmp) / args.parent.resolve().name
            shutil.copytree(args.parent, copy,
                            ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for workload, n in args.workload:
            seeds = list(range(1, n + 1))
            pairs = [run_pair(dirs, workload, seed, seconds, i % 2 == 0)
                     for i, seed in enumerate(seeds)]
            entry = report["workloads"][workload] = summarize(seeds, pairs, e2e)
            bad += [line for seed, pair in zip(seeds, pairs)
                    for line in faults(workload, seed, pair)]
            warnings.append(few_pairs(workload, n))
            if workload in held:
                pair = run_pair(dirs, workload, held[workload], seconds, True)
                entry["held_out_seed"] = held_out(held[workload], pair, e2e)
                bad += faults(workload, held[workload], pair)
            if workload in controls:
                same = {"parent": args.parent, "change": copy}
                pairs = [run_pair(same, workload, seed, seconds, i % 2 == 0, " control")
                         for i, seed in enumerate(range(1, controls[workload] + 1))]
                entry["control"] = control(pairs, e2e)
                for name, metric in entry["metrics"].items():
                    metric["outside_control"] = outside_control(
                        metric, entry["control"]["metrics"][name])
                bad += [line for seed, pair in enumerate(pairs, 1)
                        for line in faults(f"{workload} control", seed, pair)]
                warnings.append(few_pairs(workload, controls[workload], " control"))
    args.out.write_text(dumps(report) + "\n")
    for line in [w for w in warnings if w] + bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
