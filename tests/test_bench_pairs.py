"""The pair driver's summary, on canned ``perfbench/run.py`` results.

No benchmark runs here: the results are written out, or rebuilt from the
runs recorded in ``BENCH_dop853_sums.json``, whose summary the driver must
reproduce.
"""

import importlib.util
import json
import shutil
import subprocess
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


# name: (parent throughputs, change throughputs, verdict), ten pairs each
# with bound 0.25.  Throughput is better higher; the p50 of each run is its
# reciprocal, better lower, and gets the same verdict.
VERDICTS = {
    # 10 of 10 pairs won, medians 104.5 and 124.5 apart by more than the
    # parent's interquartile range of 4.5.
    "gain": ([100.0 + i for i in range(10)], [120.0 + i for i in range(10)], "gain"),
    # 9 of 10 won; the medians are as above.
    "gain-9-of-10": ([100.0 + i for i in range(10)], [120.0 + i for i in range(9)] + [99.0],
                     "gain"),
    # 8 of 10 won.
    "8-of-10": ([100.0 + i for i in range(10)], [120.0 + i for i in range(8)] + [99.0, 99.0],
                "unchanged"),
    # 10 of 10 won by less than the parent's interquartile range.
    "within-spread": ([100.0 + i for i in range(10)], [101.0 + i for i in range(10)],
                      "unchanged"),
    # 30 % slower, beyond the bound of 25 %.
    "regression": ([100.0] * 10, [70.0] * 10, "regression"),
    # 18 % slower, and a p50 22 % higher: within the bound.
    "within-bound": ([100.0] * 10, [82.0] * 10, "unchanged"),
    # The parent spreads over 50 to 150 (interquartile range 50, wider than
    # 25 % of its median 100), and the change overlaps it.
    "unresolved": ([50.0, 150.0] * 5, [60.0, 140.0] * 5, "unresolved"),
    # The same spread, but every change run beats every parent run, by less
    # than the parent's interquartile range.
    "all-runs-better": ([50.0, 150.0] * 5, [151.0, 152.0] * 5, "unchanged"),
}


@pytest.mark.parametrize("name", VERDICTS)
def test_verdict_of_canned_runs(name):
    parent, change, want = VERDICTS[name]
    pairs = _pairs([(p, 1.0 / p) for p in parent], [(c, 1.0 / c) for c in change])
    got = bench_pairs.summarize(list(range(1, 11)), pairs, E2E)
    assert [m["verdict"] for m in got["metrics"].values()] == [want, want]


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


def test_wrong_runs_fail_the_driver(monkeypatch, tmp_path, capsys):
    # Seed 1 is sound; on seed 2 the parent's outputs are wrong and the
    # change fails more tasks than the parent; on the held-out seed the
    # change's outputs are wrong.
    canned = {
        ("atlas", 1): _pairs([(100.0, 2.0)], [(110.0, 1.9)])[0],
        ("atlas", 2): _pairs([(100.0, 2.0, 100, 0, False)], [(110.0, 1.9, 100, 2)])[0],
        ("atlas", 104729): _pairs([(100.0, 2.0)], [(110.0, 1.9, 100, 0, False)])[0],
    }
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": E2E, "run_seconds": 1}))
    dirs = {tmp_path / side: side for side in ("parent", "change")}
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds:
                        canned[workload, seed][dirs[checkout]])
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "atlas:2",
            "--held-out", "atlas:104729", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert json.loads(out.read_text())["workloads"]["atlas"]["correct"] == {
        "parent": False, "change": True,
    }
    err = capsys.readouterr().err.splitlines()
    assert err[-3:] == [
        "atlas seed 2 parent: outputs not correct",
        "atlas seed 2 change: 2 failed tasks, parent 0",
        "atlas seed 104729 change: outputs not correct",
    ]
    canned["atlas", 2] = canned["atlas", 104729] = canned["atlas", 1]
    assert bench_pairs.main(argv) == 0


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
        # The verdict postdates the recorded file.
        rest = {k: v for k, v in entry.items() if k not in ("parent", "change", "verdict")}
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


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_labels_default_to_each_checkouts_short_commit(tmp_path):
    checkout, plain = tmp_path / "checkout", tmp_path / "plain"
    (checkout / "sub").mkdir(parents=True)
    plain.mkdir()
    git = ["git", "-C", str(checkout)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                          "--allow-empty", "-m", "x"], check=True)
    commit = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    assert bench_pairs.label(checkout) == commit
    # A directory that is no checkout of its own keeps its name, as before.
    assert bench_pairs.label(plain) == "plain"
    assert bench_pairs.label(checkout / "sub") == "sub"


def test_machine_block_records_bytecode_and_simd(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    env = bench_pairs.environment()
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "(dispatched; baseline " in env["numpy_simd"]
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.environment()["PYTHONDONTWRITEBYTECODE"] is None


def test_control_of_canned_runs():
    # Same code on both sides: the parent against its copy.
    pairs = _pairs([(100.0, 2.0), (110.0, 1.0), (90.0, 3.0), (120.0, 2.5)],
                   [(105.0, 2.0), (99.0, 1.1), (99.0, 2.7), (108.0, 2.5)])
    got = bench_pairs.control(pairs, E2E)
    assert got["pairs"] == 4
    tput = got["metrics"]["throughput_tasks_s"]
    # Medians 105 of 90, 100, 110, 120 and 102 of 99, 99, 105, 108.
    assert tput["ratio"] == round(102.0 / 105.0, 4)
    assert tput["copy_better_pairs"] == 2  # 100 -> 105 and 90 -> 99
    assert tput["pair_ratios"] == [1.05, 0.9, 1.1, 0.9]
    assert tput["range"] == [0.9, 1.1]
    p50 = got["metrics"]["task_p50_ms"]
    assert p50["copy_better_pairs"] == 1  # 3.0 -> 2.7; the ties count for neither
    assert p50["pair_ratios"] == [1.0, 1.1, 0.9, 1.0]


@pytest.mark.parametrize("ratio, want", [(1.2, True), (0.85, True), (1.05, False),
                                         (1.1, False), (None, None)])
def test_outside_control(ratio, want):
    # 1.05 is inside the control's spread of 0.9 to 1.1, the ends included.
    same_code = {"range": [0.9, 1.1]}
    assert bench_pairs.outside_control({"change_over_parent": ratio}, same_code) is want


def test_control_needs_its_workload(capsys):
    argv = ["parent", "change", "--workload", "atlas:2", "--out", "bench.json"]
    assert bench_pairs.parse_args(argv + ["--control", "atlas:5"]).control == [("atlas", 5)]
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv + ["--control", "rays:5"])
    assert "--control names workloads with no --workload: rays" in capsys.readouterr().err


def test_control_runs_the_parent_against_its_copy(monkeypatch, tmp_path, capsys):
    # The copy is a second directory holding the parent's files.  Its pairs
    # fill the control block and outside_control; the verdicts are those of
    # the pairs alone, and both the 2 pairs and the 3 control pairs warn.
    canned = {"parent": _result(100.0, 2.0), "change": _result(130.0, 1.5),
              "copy": _result(104.0, 2.0)}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": E2E, "run_seconds": 1}))
    (tmp_path / "parent" / "marker").write_text("parent")
    runs = []

    def run_once(checkout, workload, seed, seconds):
        side = {tmp_path / "parent": "parent", tmp_path / "change": "change"}.get(checkout, "copy")
        if side == "copy":
            assert (checkout / "marker").read_text() == "parent"
        runs.append((side, seed))
        return canned[side]

    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "atlas:2",
            "--control", "atlas:3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert sorted(runs) == sorted([("parent", 1), ("change", 1), ("parent", 2), ("change", 2),
                                   ("parent", 1), ("copy", 1), ("parent", 2), ("copy", 2),
                                   ("parent", 3), ("copy", 3)])
    atlas = json.loads(out.read_text())["workloads"]["atlas"]
    assert atlas["control"]["pairs"] == 3
    assert atlas["control"]["metrics"]["throughput_tasks_s"]["range"] == [1.04, 1.04]
    tput, p50 = atlas["metrics"]["throughput_tasks_s"], atlas["metrics"]["task_p50_ms"]
    assert (tput["change_over_parent"], tput["outside_control"]) == (1.3, True)
    assert (p50["change_over_parent"], p50["outside_control"]) == (0.75, True)
    plain = bench_pairs.summarize([1, 2], _pairs([(100.0, 2.0)] * 2, [(130.0, 1.5)] * 2), E2E)
    assert [m["verdict"] for m in atlas["metrics"].values()] == [
        m["verdict"] for m in plain["metrics"].values()]
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "warning: atlas ran 2 pairs, fewer than the 10 that the gain rule needs",
        "warning: atlas control ran 3 pairs, fewer than the 10 that the gain rule needs",
    ]
