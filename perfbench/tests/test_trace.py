"""Tests of the benchmark's own code: run with
``python3 -m pytest perfbench/tests`` from the repository root."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

ws = run.load_workloads()


def counters(raw: dict) -> dict:
    """Every per-layer metric that is not a wall time."""
    metrics = run.layer_metrics(raw)
    return {k: v for k, v in metrics.items() if run.LAYER_UNITS[k] != "s"}


@pytest.mark.parametrize("workload,n_tasks", [
    ("atlas", 20), ("rays", 15), ("fields", 10), ("cli_cold", 3),
])
def test_traced_counters_repeat_for_one_seed(workload, n_tasks):
    first, tally, _ = run.traced_layers(workload, 7, n_tasks, ws)
    second, _, _ = run.traced_layers(workload, 7, n_tasks, ws)
    assert tally.wrong == 0
    assert counters(first) == counters(second)
    assert any(counters(first).values())


def test_import_breakdown_keeps_shares_disjoint():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       numpy.fft",
        "import time:        30 |         50 |     scipy.integrate",
        "import time:        10 |         60 |   scipy",
        "import time:         5 |        215 | warpgeo",
    ])
    assert run.import_breakdown(log) == pytest.approx({
        "cli.import_s": 215e-6,
        "cli.import_scipy_s": 60e-6,
        "cli.import_numpy_s": 150e-6,
    })


def test_nudged_pass_keeps_inputs_valid():
    """The last pass's nudge leaves every input on its side of pi and 0.

    One round of atlas holds a near-pi gap, which may exhaust (a known
    defect, graded failed); every other task must pass.
    """
    tasks = run._take(ws.make_tasks("atlas", 3, nudge=7 * run.NUDGE), 50)
    verdicts = [run.timed(task, ws)[1] for task in tasks]
    assert ws.WRONG not in verdicts
    assert verdicts.count(ws.OK) >= len(verdicts) - 1


def test_same_r_sweep_oracle_rejects_a_wrong_count():
    task = ws._cli_sweep_same_r(np.random.default_rng(5), ws.plain_cli)
    out = task.run()
    assert task.check(out) == ws.OK
    header, first, *rest = out.stdout.splitlines()
    cells = first.split(",")
    cells[-1] = str(int(cells[-1]) + 1)  # the iterations column
    tampered = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert task.check(ws.CliOutput(out.code, tampered, out.stderr)) == ws.WRONG
