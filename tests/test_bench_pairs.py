"""The pair driver's summary, on canned ``perfbench/run.py`` results.

No benchmark runs here: the results are written out, or rebuilt from the
runs recorded in ``BENCH_dop853_sums.json``, whose summary the driver must
reproduce.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

E2E = [
    {"name": "throughput_tasks_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "task_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _result(throughput, p50, attempted=100, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput_tasks_s": {"value": throughput, "unit": "1/s"},
            "task_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def _pairs(parent, change):
    return [{"parent": _result(*p), "change": _result(*c)} for p, c in zip(parent, change)]


def test_summary_of_canned_runs():
    pairs = _pairs(
        [(100.0, 2.0), (110.0, 1.0), (90.0, 3.0), (120.0, 2.5, 100, 1)],
        [(130.0, 1.5), (100.0, 1.0), (140.0, 1.2), (150.0, 1.1, 100, 0, False)],
    )
    got = bench_pairs.summarize([1, 2, 3, 4], pairs, E2E)
    assert got["seeds"] == [1, 2, 3, 4] and got["pairs"] == 4
    assert got["attempted"] == {"parent": 400, "change": 400}
    assert got["failed"] == {"parent": 1, "change": 0}
    assert got["correct"] == {"parent": True, "change": False}

    tput = got["metrics"]["throughput_tasks_s"]
    assert (tput["unit"], tput["better"], tput["bound"]) == ("1/s", "higher", 0.25)
    # Inclusive quartiles of 90, 100, 110, 120 and of 100, 130, 140, 150.
    assert tput["parent"] == {"median": 105.0, "q1": 97.5, "q3": 112.5}
    assert tput["change"] == {"median": 135.0, "q1": 122.5, "q3": 142.5}
    assert tput["change_over_parent"] == round(135.0 / 105.0, 4)
    assert tput["change_better_pairs"] == 3  # 100 -> 130, 90 -> 140, 120 -> 150
    assert tput["parent_runs"] == [100.0, 110.0, 90.0, 120.0]

    p50 = got["metrics"]["task_p50_ms"]
    assert p50["change_better_pairs"] == 3  # lower wins; the tie 1.0 -> 1.0 does not
    assert p50["change_runs"] == [1.5, 1.0, 1.2, 1.1]


def test_one_pair_is_its_own_median():
    got = bench_pairs.summarize([7], _pairs([(100.0, 2.0)], [(120.0, 1.0)]), E2E)
    assert got["metrics"]["throughput_tasks_s"]["change"] == {
        "median": 120.0, "q1": 120.0, "q3": 120.0,
    }


def test_held_out_pair():
    pair = _pairs([(100.0, 2.0)], [(120.0, 1.0)])[0]
    assert bench_pairs.held_out(104729, pair, E2E) == {
        "seed": 104729,
        "throughput_tasks_s": {"parent": 100.0, "change": 120.0},
        "task_p50_ms": {"parent": 2.0, "change": 1.0},
    }


def test_held_out_needs_its_workload(capsys):
    argv = ["parent", "change", "--workload", "atlas:2", "--out", "bench.json"]
    args = bench_pairs.parse_args(argv + ["--held-out", "atlas:104729"])
    assert args.held_out == [("atlas", 104729)]
    # A held-out seed of a workload that runs no pairs would be dropped.
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv + ["--held-out", "rays:104729"])
    assert "--held-out names workloads with no --workload: rays" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["atlas", "rays", "fields", "cli_cold"])
def test_reproduces_a_committed_summary(workload):
    # The runs were recorded to 6 decimals, the quartiles from the unrounded
    # values: they agree to one unit in the 6th decimal.
    recorded = json.loads((ROOT / "BENCH_dop853_sums.json").read_text())["workloads"][workload]
    e2e = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    n = recorded["pairs"]
    pairs = [
        {
            side: {
                "correct": recorded["correct"][side],
                "attempted": recorded["attempted"][side] // n,
                "failed": 0,
                "metrics": {m: {"value": v[f"{side}_runs"][i]} for m, v in recorded["metrics"].items()},
            }
            for side in ("parent", "change")
        }
        for i in range(n)
    ]
    got = bench_pairs.summarize(recorded["seeds"], pairs, e2e)
    for key in ("seeds", "pairs", "attempted", "failed", "correct"):
        assert got[key] == recorded[key]
    assert list(got["metrics"]) == list(recorded["metrics"])
    for name, want in recorded["metrics"].items():
        entry = got["metrics"][name]
        for side in ("parent", "change"):
            assert entry[side] == pytest.approx(want[side], abs=1.5e-6)
        rest = {k: v for k, v in entry.items() if k not in ("parent", "change")}
        assert rest == {k: v for k, v in want.items() if k not in ("parent", "change")}


def test_dumps_is_json_in_the_committed_layout():
    text = bench_pairs.dumps({"a": "x", "b": {"median": 1.0, "q1": 0.5}, "c": [1, 2],
                              "d": {"e": [0.1, 0.2], "f": True}})
    assert json.loads(text)["d"] == {"e": [0.1, 0.2], "f": True}
    assert text.splitlines() == [
        "{",
        ' "a": "x",',
        ' "b": {"median": 1.0, "q1": 0.5},',
        ' "c": [1, 2],',
        ' "d": {',
        '  "e": [0.1, 0.2],',
        '  "f": true',
        " }",
        "}",
    ]
