"""Alternated parent/change benchmark pairs, summarised as a BENCH_*.json file.

Usage (from the repository root)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload atlas:10 --workload rays:5 --held-out atlas:104729 \\
        --claimed atlas:throughput_tasks_s --what "..." --out BENCH_label.json

PARENT_DIR and CHANGE_DIR are two checkouts (for example ``git archive``
copies of two commits).  ``--workload W:N`` runs N pairs of the checkouts'
unchanged ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
with seeds K = 1..N and S the ``run_seconds`` of CHANGE_DIR/BENCHMARK.json;
odd pairs run the parent first, even pairs the change first.  Each run's last stdout line is its JSON result.  ``--held-out W:K``
adds one pair on seed K, kept apart from the medians.

Per workload and end-to-end metric of CHANGE_DIR/BENCHMARK.json the file
holds each side's median and quartiles, their ratio, the pairs the change
won and every run's value, with the machine, the Python and numpy versions
and the OpenBLAS kernel in use.  Only the standard library is imported
here; numpy is queried in a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_COMMAND = "python3 perfbench/run.py --workload W --seed K --seconds {seconds:g} --trace 0"
METHOD = (
    "Alternated pairs: odd pairs run the parent first, even pairs the change first; each "
    "side runs from its own checkout. Medians and inclusive quartiles over the pairs' runs; "
    "change_better_pairs counts pairs the change won. A held-out seed is one pair outside "
    "the medians."
)

# Run in a child with the benchmark's interpreter: numpy's version and the
# OpenBLAS kernel in use.  numpy.show_runtime() names the kernel only when
# threadpoolctl is installed; otherwise the loaded OpenBLAS is asked itself.
_NUMPY_PROBE = r"""
import contextlib, ctypes, io, json, re, sys
import numpy
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
}))
"""


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        values = values * 2  # one run is its own median and quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _better(spec: dict, change: float, parent: float) -> bool:
    return change > parent if spec["better"] == "higher" else change < parent


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


def run_pair(dirs: dict, workload: str, seed: int, seconds: float, parent_first: bool) -> dict:
    order = SIDES if parent_first else SIDES[::-1]
    pair = {side: run_once(dirs[side], workload, seed, seconds) for side in order}
    values = ", ".join(
        f"{side} {pair[side]['metrics']['throughput_tasks_s']['value']:.1f}" for side in SIDES
    )
    print(f"{workload} seed {seed}: throughput {values}", file=sys.stderr, flush=True)
    return pair


def environment() -> dict:
    """Machine, Python, numpy and BLAS kernel of the interpreter that runs the pairs."""
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
    return {"machine": machine, **found}


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
    parser.add_argument("--claimed", metavar="W:METRIC", help="the metric a gain is claimed on")
    parser.add_argument("--target", default="", help="the claimed gain, in words")
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--labels", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="commit names of the two sides (default: directory names)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    unrun = sorted({w for w, _ in args.held_out} - {w for w, _ in args.workload})
    if unrun:
        parser.error(f"--held-out names workloads with no --workload: {', '.join(unrun)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    e2e, seconds = bench["end_to_end"], bench["run_seconds"]
    labels = args.labels or [args.parent.resolve().name, args.change.resolve().name]
    report = {
        "what": args.what,
        "parent": labels[0],
        "change": labels[1],
        "command": RUN_COMMAND.format(seconds=seconds),
        "method": METHOD,
        **environment(),
    }
    if args.claimed:
        workload, _, metric = args.claimed.partition(":")
        report["claimed"] = {"workload": workload, "metric": metric, "target": args.target}
    held = dict(args.held_out)
    report["workloads"] = {}
    for workload, n in args.workload:
        seeds = list(range(1, n + 1))
        pairs = [run_pair(dirs, workload, seed, seconds, i % 2 == 0)
                 for i, seed in enumerate(seeds)]
        report["workloads"][workload] = summarize(seeds, pairs, e2e)
        if workload in held:
            pair = run_pair(dirs, workload, held[workload], seconds, True)
            report["workloads"][workload]["held_out_seed"] = held_out(held[workload], pair, e2e)
    args.out.write_text(dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
