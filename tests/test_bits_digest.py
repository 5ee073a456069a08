"""The hashing of ``tools/bits_digest.py``.  The tool itself runs on two
checkouts, outside the suite."""

import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bits_digest", ROOT / "tools" / "bits_digest.py")
bits_digest = sys.modules["bits_digest"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits_digest)  # its dataclass needs the module registered
digest, outcome = bits_digest.digest, bits_digest.outcome


@dataclass(frozen=True)
class Result:
    value: float
    samples: np.ndarray
    evaluate: object = None


def fails(message):
    raise ValueError(message)


def results(x=1.0, zero=0.0, message="outside"):
    """Results of the kinds the tool hashes, built afresh on each call."""
    return [x, np.array([zero, x]), (3, None, "s", True), {"k": [x]},
            Result(x, np.array([zero]), evaluate=math.sqrt), outcome(fails, message),
            outcome(math.sqrt, 4.0)]


def test_equal_results_give_equal_digests():
    assert digest(results()) == digest(results())
    assert digest(results())[1] == 7
    # A dataclass's callable fields are not results.
    assert digest([Result(1.0, np.zeros(1), math.sqrt)]) == digest([Result(1.0, np.zeros(1), abs)])


@pytest.mark.parametrize("changed", [
    {"x": math.nextafter(1.0, 2.0)},
    {"zero": -0.0},
    {"message": "outside the domain"},
], ids=["one-ulp", "sign-of-zero", "error-message"])
def test_a_changed_result_changes_the_digest(changed):
    assert digest(results(**changed)) != digest(results())


def test_types_and_errors_are_told_apart():
    assert digest([1.0]) != digest([np.float64(1.0)])
    assert digest([1]) != digest([1.0])
    assert digest([outcome(fails, "x")]) != digest([outcome(lambda: 1 / 0)])
    assert outcome(fails, "x") == bits_digest.Error("ValueError", "x")
    with pytest.raises(TypeError):
        digest([object()])


def test_run_cli_hashes_the_status_and_both_streams():
    def main(argv):
        print("rows", *argv)
        print("warpgeo: error: note", file=sys.stderr)
        return 1

    assert bits_digest.run_cli(main, ["a", "b"]) == (1, "rows a b\n", "warpgeo: error: note\n")
    crashed = bits_digest.run_cli(lambda argv: 1 / 0, [])
    assert crashed == (bits_digest.Error("ZeroDivisionError", "division by zero"), "", "")


def test_run_cli_path_out_hashes_the_file_it_writes(tmp_path):
    def main(argv):
        with open(argv[-1], "w", encoding="utf-8") as fh:
            fh.write("s,r\n")
        return 0

    assert bits_digest.run_cli_path_out(main, ["connect"]) == ((0, "", ""), "s,r\n")
    assert bits_digest.run_cli_path_out(lambda argv: 2, []) == ((2, "", ""), None)


def test_cli_layer_runs_each_command_on_each_builtin_warp():
    import warpgeo

    def layer():
        return list(bits_digest.layer_cli(warpgeo, np.random.default_rng(6)))

    results = layer()
    runs = [(argv, result) for argv, result in results if len(result) == 3]
    ran = {(argv[0], argv[argv.index(command)])
           for argv, (code, out, err) in runs if code == 0 and out and not err
           for command in ("curvature", "geodesic", "isometry") if command in argv}
    assert ran == {(f"--warp={spec}", command) for spec in bits_digest.CLI_SPECS
                   for command in ("curvature", "geodesic", "isometry")}
    # Refusals are results too: one error line, nothing on stdout.
    assert any(code == 1 and not out and err.startswith("warpgeo: error: ")
               for _, (code, out, err) in runs)
    # connect: found, blocked and horizontal on the flat metric, found and
    # horizontal on h = r; a sweep on each, and one --same-r sweep.
    variants = {(argv[0], json.loads(out)["variant"])
                for argv, (code, out, err) in runs if "connect" in argv}
    assert variants == {("--warp=one_over_r", "found"), ("--warp=one_over_r", "no_geodesic"),
                        ("--warp=one_over_r", "horizontal"), ("--warp=r", "found"),
                        ("--warp=r", "horizontal")}
    swept = [argv[0] for argv, (code, out, err) in runs
             if "sweep" in argv and code == 0 and len(out.splitlines()) == 10]
    assert swept == ["--warp=one_over_r", "--warp=r", "--format"]
    # Each --path-out line wrote its 129 rows under a header.
    written = [(argv[0], json.loads(result[0][1])["path_file"], len(result[1].splitlines()))
               for argv, result in results if len(result) == 2]
    assert written == [("--warp=one_over_r", "p.csv", 130), ("--warp=r", "p.csv", 130)]
    assert digest(results) == digest(layer())
