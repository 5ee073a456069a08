import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import run_child

from warpgeo import cli

CLI = [sys.executable, "-m", "warpgeo.cli"]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(*args, **kwargs):
    return run_child(CLI + list(args), text=True, **kwargs)


def readme_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced code blocks tagged ``lang``."""
    parts = README.read_text().split("```")
    return [body[len(lang) + 1:] for body in parts[1::2] if body.startswith(lang + "\n")]


# Every ``warpgeo ...`` line of README's shell examples.
README_COMMANDS = [
    ln for block in readme_blocks("sh") for ln in block.splitlines() if ln.startswith("warpgeo ")
]


def readme_exit_status(line: str) -> int:
    """The exit status a README command's comment states: 2 where it says so, else 0."""
    return 2 if "exit status 2" in line.partition("#")[2] else 0


class TestCurvature:
    def test_flat_metric_rows(self):
        res = run_cli("--warp", "one_over_r", "--format", "csv", "curvature", "1", "2", "3")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "r,K,K_oracle,abs_diff"
        assert len(lines) == 4
        for ln in lines[1:]:
            assert float(ln.split(",")[1]) == 0.0

    def test_radial_metric_value(self):
        res = run_cli("--warp", "r", "--format", "json", "curvature", "1", "2", "2")
        rows = json.loads(res.stdout)
        assert rows[0]["r"] == 1.0
        assert rows[0]["K"] == -2.0
        assert abs(rows[0]["K"] - rows[0]["K_oracle"]) < 1e-5

    def test_exp_constant(self):
        res = run_cli("--warp", "exp", "--format", "json", "curvature", "0.5", "3", "4")
        rows = json.loads(res.stdout)
        assert all(row["K"] == -1.0 for row in rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_oracle_is_one_error_line(self, fmt):
        # e^r overflows past r = 709.78, and the oracle's 1/h with it: the
        # table is refused, naming the first such radius, with no NaN written
        # and no warning.
        res = run_cli("--warp", "exp", "--format", fmt, "curvature", "700", "720", "3")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "warpgeo: error: curvature oracle is not finite at r = 710.0\n"

    def test_oracle_dividing_by_zero_is_one_error_line(self):
        # h of flat:1e305,5 overflows next to its pole, so the oracle's 1/h
        # is 0 and its quotient divides by zero on Python floats: refused by
        # name like an overflow, with no traceback.
        res = run_cli("--warp", "flat:1e305,5", "curvature", "4.9999", "4.99995", "2",
                      "--step", "1e-6")
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "warpgeo: error: curvature oracle is not finite at r = 4.9999\n"

    def test_bad_range(self):
        res = run_cli("curvature", "2", "1", "3")
        assert res.returncode == 1
        assert "error" in res.stderr

    def test_radius_outside_domain(self):
        res = run_cli("--warp", "flat:2,5", "curvature", "0.5", "7", "3")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "warpgeo: error: radius 7.0 outside open domain (0.0, 5.0)\n"

    def test_domain_too_narrow_for_its_grid(self):
        # The refusal names the domain, not a radius of make_warp's grid.
        res = run_cli("--warp", "flat:1,1e-10", "curvature", "2e-11", "8e-11", "3")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == ("warpgeo: error: warp 'flat': domain (0.0, 1e-10) is too narrow "
                              "for its validation grid\n")


class TestGeodesic:
    def test_inward_ray_summary(self):
        res = run_cli("--warp", "one_over_r", "geodesic", "1", "0", str(math.pi), "5")
        assert res.returncode == 0
        assert res.stdout.startswith("s,r,t,f,g\n")
        summary = res.stdout.strip().split("\n")[-1]
        assert summary.startswith("# escaped=true length=")
        assert abs(float(summary.split("length=")[1]) - 1.0) < 1e-6

    def test_readme_inward_ray_escapes(self):
        # The README example as written: an angle short of pi by 2.7e-6
        # swings past the origin instead of escaping.
        line = next(ln for ln in README_COMMANDS
                    if ln.startswith("warpgeo --warp one_over_r geodesic "))
        res = run_cli(*shlex.split(line, comments=True)[1:])
        assert res.returncode == 0
        summary = res.stdout.strip().split("\n")[-1]
        assert summary.startswith("# escaped=true length=")
        assert abs(float(summary.split("length=")[1]) - 1.0) < 1e-8

    @pytest.mark.parametrize("argv", [
        # README's inward ray, and an h = r arch that ends at r -> 0.
        ["--warp", "one_over_r", "geodesic", "1", "0", "3.141592653589793", "5"],
        ["--warp", "r", "geodesic", "1", "0", "1", "5"],
    ], ids=["one_over_r-inward", "r-arch"])
    def test_escape_leaves_stderr_empty(self, argv):
        # The escape step's trial stages probe past r = 0; none may reach
        # the solver as NaN and print its RuntimeWarnings.
        res = run_cli(*argv)
        assert res.returncode == 0
        assert res.stdout.strip().split("\n")[-1].startswith("# escaped=true length=")
        assert res.stderr == ""

    def test_failed_solve_is_one_error_line(self):
        # At r = 1e200 the ray's initial derivative (b^2 overflows) and step
        # are nan, and the solver stops on them and names the derivative; the
        # timeout fails a hang instead of the suite.
        res = run_cli("--warp", "one_over_r", "geodesic", "1e200", "0", "2", "1e200",
                      timeout=60)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == ("warpgeo: error: geodesic integration failed: "
                              "The derivative is not finite at t = 0.0.\n")

    def test_overflowing_warp_at_the_start_is_one_error_line(self):
        # e^800 overflows in the momentum b = g/h, inside the solve's errstate.
        res = run_cli("--warp", "exp", "geodesic", "800", "0", "1", "1", timeout=60)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == ("warpgeo: error: geodesic integration failed: "
                              "The derivative is not finite at t = 0.0.\n")

    def test_start_inside_the_escape_margin_escapes(self):
        # 5e-11 from r = 0, inside ESCAPE_MARGIN: the ray stops after half
        # that distance.
        res = run_cli("geodesic", "5e-11", "0", "3.141592653589793", "1", timeout=60)
        assert res.returncode == 0 and res.stderr == ""
        summary = res.stdout.strip().split("\n")[-1]
        assert summary.startswith("# escaped=true length=")
        assert float(summary.split("length=")[1]) == pytest.approx(2.5e-11, rel=1e-9)

    @pytest.mark.parametrize("s_max", ["inf", "nan"])
    def test_non_finite_length_is_one_error_line(self, s_max):
        res = run_cli("--warp", "one_over_r", "geodesic", "1", "0", "1", s_max)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "warpgeo: error: s_max must be finite\n"

    @pytest.mark.parametrize("count", ["0", "1", "-3"])
    def test_sample_count_below_two_usage_error(self, count):
        res = run_cli("--warp", "r", "geodesic", "1", "0", "1", "5", "--samples", count)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == f"warpgeo: error: n_samples must be an integer >= 2, got {count}\n"

    def test_quarter_turn_endpoint(self):
        res = run_cli("--warp", "one_over_r", "geodesic", "1", "0", str(math.pi / 2), "1",
                      "--samples", "3")
        rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[1:-1]]
        end = rows[-1]
        assert float(end[1]) == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert float(end[2]) == pytest.approx(math.pi / 4.0, abs=1e-8)

    def test_horizontal_ray(self):
        res = run_cli("--warp", "r", "geodesic", "1", "0", "0", "3", "--samples", "2")
        last = res.stdout.strip().split("\n")[-2].split(",")
        assert float(last[1]) == pytest.approx(4.0, abs=1e-9)
        assert float(last[2]) == 0.0

    def test_plot_script_without_out_is_refused_before_solving(self, tmp_path):
        res = run_cli("geodesic", "1", "0", "0.5", "1", "--samples", "3",
                      "--plot-script", "p.gp", cwd=tmp_path)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == ("warpgeo: error: --plot-script needs --out so the script "
                              "can reference the CSV\n")
        assert not (tmp_path / "p.gp").exists()

    def test_plot_script_names_the_csv(self, tmp_path):
        res = run_cli("--out", "path.csv", "geodesic", "1", "0", "0.5", "1", "--samples", "3",
                      "--plot-script", "p.gp", cwd=tmp_path)
        assert res.returncode == 0 and res.stdout == ""
        assert (tmp_path / "path.csv").read_text().startswith("s,r,t,")
        plot = (tmp_path / "p.gp").read_text().splitlines()
        assert plot[-1] == "plot 'path.csv' skip 1 using 3:2 with lines title 'geodesic'"


class TestConnect:
    def test_threshold_violation_exit_code(self):
        res = run_cli("connect", "1,0", f"1,{math.pi}")
        assert res.returncode == 2
        doc = json.loads(res.stdout)
        assert doc["variant"] == "no_geodesic"
        assert doc["reason"] == "threshold_violated"

    def test_huge_radii_exhaust_without_hanging(self):
        # The replay's solver fails at r = 1e200; that shot is unconfirmed.
        # The timeout fails a hang instead of the suite.
        res = run_cli("connect", "1e200,0", "1e200,1", timeout=60)
        assert res.returncode == 2
        assert json.loads(res.stdout)["reason"] == "search_exhausted"
        assert res.stderr == ""

    def test_horizontal_exit_code(self):
        res = run_cli("connect", "1,0", "2,0")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["variant"] == "horizontal"
        assert doc["length"] == 1.0

    def test_found_quarter_turn(self):
        res = run_cli("connect", "1,0", f"1,{math.pi / 2}")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["variant"] == "found"
        assert doc["s"] == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_neg2_metric_inferred_from_warp(self):
        res = run_cli("--warp", "r", "connect", "1,0", "1,1")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["metric"] == "neg2"
        assert doc["variant"] == "found"

    def test_path_export(self, tmp_path):
        target = str(tmp_path / "path.csv")
        res = run_cli("connect", "1,0", "1,1", "--path-out", target)
        doc = json.loads(res.stdout)
        assert doc["path_file"] == target
        with open(target) as fh:
            assert fh.readline().strip() == "s,r,t,f,g"

    def test_near_half_turn_found(self):
        res = run_cli("connect", "4,0", "0.5,3.1415926")
        assert res.returncode == 0
        assert json.loads(res.stdout)["variant"] == "found"

    def test_equal_radii_small_gap_found(self):
        res = run_cli("connect", "1,0", "1,2e-8")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["variant"] == "found"
        assert doc["s"] == pytest.approx(2e-8, rel=1e-15)
        assert doc["param"] == pytest.approx(-1e-8, rel=1e-12)

    @pytest.mark.parametrize("t1", ["2.9604205", "2.960420506177634", "2.96042051"])
    def test_neg2_gap_near_apex_arrival_found(self, t1):
        # (1, 0) to (2, 2 pi/3 + sqrt(3)/2): the arch reaches r = 2 at its apex.
        res = run_cli("--warp", "r", "connect", "1,0", f"2,{t1}")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["variant"] == "found"
        assert doc["s"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-7)

    def test_identical_points_usage_error(self):
        res = run_cli("connect", "1,0", "1,0")
        assert res.returncode == 1

    def test_malformed_point(self):
        res = run_cli("connect", "1;0", "2,0")
        assert res.returncode == 1


class TestSweep:
    def test_flat_threshold_flip(self):
        res = run_cli("--format", "csv", "sweep", "--metric", "flat", "--p0", "1,0",
                      "--r1", "1", "--t1=-3.5:3.5:15")
        assert res.returncode == 0
        rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[1:]]
        for row in rows:
            t1 = float(row[3])
            exists = int(row[4])
            assert exists == (1 if abs(t1) < math.pi else 0)

    def test_same_r_below_threshold(self):
        res = run_cli("--format", "csv", "sweep", "--same-r", "--r0", "1",
                      "--dt", "0.2:3.0:8")
        rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[1:]]
        assert rows and all(int(row[4]) == 0 for row in rows)

    def test_empty_grid_header_only(self):
        res = run_cli("--format", "csv", "sweep", "--t1", "0:1:0")
        assert res.returncode == 0
        assert res.stdout.strip() == "r0,t0,r1,t1,exists,length,iterations"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--t1=-inf:1:3"],
        ["sweep", "--same-r", "--r0", "1", "--dt=-inf:1:3"],
        ["sweep", "--t1=0:nan:3"],
    ])
    def test_non_finite_range_bound_is_one_error_line(self, argv):
        res = run_cli("--format", "csv", *argv)
        assert res.returncode == 1
        assert res.stdout == ""
        text = argv[-1].partition("=")[2]
        assert res.stderr == f"warpgeo: error: range bounds must be finite, got {text!r}\n"

    def test_non_finite_same_radius_is_one_error_line(self):
        res = run_cli("--format", "csv", "sweep", "--same-r", "--r0", "nan", "--dt", "0.5:7:3")
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "warpgeo: error: r0 must be finite, got nan\n"

    def test_negative_sample_count_keeps_numpys_message(self):
        res = run_cli("--format", "csv", "sweep", "--t1=-1:1:-2")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "warpgeo: error: Number of samples, -2, must be non-negative.\n"


def _grid_cases():
    """Seeded (lo, hi, n): same-scale and mixed-scale bounds from 1e-300 to
    1e300 of either sign, n from 0 up, and the edge cases by name."""
    rng = np.random.default_rng(20261019)
    cases = [(0.0, 0.0, 5), (1.5, 1.5, 3), (2.0, -1.0, 7), (-0.0, 1.0, 1), (0.0, -1.0, 1),
             (-0.0, -0.0, 2), (3.0, 1.0, 0), (0.0, 1e-323, 6), (-1e-300, 1e-300, 57)]
    for k in range(3000):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        lo, hi = rng.uniform(-1.0, 1.0, 2) * scale
        if k % 3 == 0:  # independent magnitudes
            hi = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300.0, 300.0)
        n = int(rng.choice([0, 1, 2, 57, int(rng.integers(3, 400))]))
        cases.append((float(lo), float(hi), n))
    return cases


def test_sweep_grid_is_np_linspace_bit_for_bit():
    for lo, hi, n in _grid_cases():
        got = [x.hex() for x in cli._linspace(lo, hi, n)]  # hex tells -0.0 from 0.0
        assert got == [x.hex() for x in np.linspace(lo, hi, n).tolist()], (lo, hi, n)
    with pytest.raises(ValueError) as want:
        np.linspace(0.0, 1.0, -2)
    with pytest.raises(ValueError) as got:
        cli._linspace(0.0, 1.0, -2)
    assert str(got.value) == str(want.value)


class TestRiccati:
    def test_blow_up_report(self, tmp_path):
        out = str(tmp_path / "field.csv")
        res = run_cli("--out", out, "riccati", "zero", "1", "1", "0.5", "3")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["blowup_location"] == pytest.approx(2.0, abs=1e-12)
        assert report["pass"] is True
        with open(out) as fh:
            assert fh.readline().strip() == "r,H,h"

    def test_inverse_square_solution(self, tmp_path):
        out = str(tmp_path / "field.csv")
        res = run_cli("--out", out, "riccati", "neg2_over_r2", "1", "1", "0.5", "3")
        report = json.loads(res.stdout)
        assert report["pass"] is True
        with open(out) as fh:
            fh.readline()
            for ln in fh:
                r, H, h = (float(x) for x in ln.split(","))
                assert H == pytest.approx(1.0 / r, abs=1e-6)

    def test_constant_profile_fixed_point(self, tmp_path):
        out = str(tmp_path / "field.csv")
        res = run_cli("--out", out, "riccati", "const:-1", "1", "1", "0.5", "4")
        assert res.returncode == 0
        assert json.loads(res.stdout)["pass"] is True
        with open(out) as fh:
            fh.readline()
            for ln in fh:
                assert float(ln.split(",")[1]) == pytest.approx(1.0, abs=1e-8)
        # H = 0 from r0 = 1e-300, whose grid starts with subnormal spacings:
        # the report alone, with no RuntimeWarning on stderr.
        res = run_cli("--out", out, "riccati", "zero", "1e-300", "0", "0", "1")
        assert (res.returncode, res.stderr) == (0, "")
        assert json.loads(res.stdout)["max_residual"] == 0.0

    def test_unknown_profile(self):
        assert run_cli("riccati", "cubic", "1", "1", "0.5", "3").returncode == 1

    def test_overflowing_u_is_one_error_line(self):
        # u = e^(r - 1) overflows near r = 710; the solver's step then
        # shrinks below the spacing of the floats.  The message names the
        # last accepted step's end and u there, as the solve accepted it.
        res = run_cli("riccati", "const:-1", "1", "-1", "0.5", "800")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == (
            "warpgeo: error: u'' + f u = 0 not integrable from 1.0 to 800.0: "
            "Required step size is less than spacing between numbers. "
            "It stopped at r = 707.1908064342697, where u = 4.951883313450973e+306.\n"
        )

    def test_collapse_at_the_singular_point_is_one_error_line(self):
        # f = -2/r^2 is singular at r = 0: the steps collapse next to it,
        # far below the range end.
        res = run_cli("riccati", "neg2_over_r2", "1", "1", "0", "3")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == (
            "warpgeo: error: u'' + f u = 0 not integrable from 1.0 to 0.0: "
            "Required step size is less than spacing between numbers. "
            "It stopped at r = 7.883674276586642e-103, where u = 1.2684440825669393e+102.\n"
        )
        # From r0 = 1e-170, r * r underflows and f divides by zero at once.
        res = run_cli("riccati", "neg2_over_r2", "1e-170", "0", "0", "1")
        assert res.returncode == 1
        assert res.stderr == (
            "warpgeo: error: u'' + f u = 0 not integrable from 1e-170 to 0.0: "
            "The derivative is not finite at t = 1e-170.\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("const:-1", "1", "1", "0.5", "inf"), ("zero", "1", "nan", "0.5", "3"),
         ("zero", "nan", "1", "0.5", "3")],
        ids=["r_hi-inf", "H0-nan", "r0-nan"],
    )
    def test_non_finite_input_usage_error(self, argv):
        res = run_cli("riccati", *argv)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("warpgeo: error: ") and res.stderr.count("\n") == 1
        assert "must be finite" in res.stderr


class TestIsometry:
    def test_translation_verdict(self):
        res = run_cli("--warp", "r", "isometry", "1", "2")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "holomorphic_isometry"

    def test_scaling_verdict(self):
        doc = json.loads(run_cli("--warp", "r", "isometry", "2", "0").stdout)
        assert doc["verdict"] == "neither"

    def test_identity_flat(self):
        doc = json.loads(run_cli("--warp", "one_over_r", "isometry", "1", "0").stdout)
        assert doc["verdict"] == "holomorphic_isometry"

    def test_nonpositive_scale_usage_error(self):
        assert run_cli("isometry", "-1", "0").returncode == 1

    def test_infinite_residual_is_one_error_line(self):
        # k e^(k r) overflows in the holomorphy residual: JSON has no
        # Infinity, so the report is refused, with no warning.
        res = run_cli("--warp", "exp", "isometry", "200", "0")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(
            "warpgeo: error: Out of range float values are not JSON compliant")
        assert res.stderr.count("\n") == 1


class TestDeterminismAndConfig:
    def test_byte_identical_repeats(self, tmp_path):
        args = ("--format", "csv", "sweep", "--metric", "flat",
                "--p0", "1,0", "--r1", "1.3", "--t1=-3:3:11")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_byte_identical_files(self, tmp_path):
        f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for f in (f1, f2):
            run_cli("--warp", "r", "--out", f, "isometry", "1.1", "0.5")
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_config_file_supplies_warp(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp": {"kind": "r", "params": []}}))
        res = run_cli("--format", "json", "curvature", "1", "1.5", "2",
                      env_extra={"WARPGEO_CONFIG": str(cfg)})
        rows = json.loads(res.stdout)
        assert rows[0]["K"] == -2.0

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp": {"kind": "r", "params": []}}))
        res = run_cli("--warp", "one_over_r", "--format", "json", "curvature", "1", "2", "2",
                      env_extra={"WARPGEO_CONFIG": str(cfg)})
        rows = json.loads(res.stdout)
        assert rows[0]["K"] == 0.0

    def test_json_round_trip(self):
        res = run_cli("connect", "1,0", "2,1")
        doc = json.loads(res.stdout)
        assert doc["variant"] == "found"
        assert doc["s"] ** 2 == pytest.approx(5.0 - 4.0 * math.cos(1.0), abs=1e-8)

    def test_unknown_subcommand(self):
        assert run_cli("teleport").returncode == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tol", "-1", "connect", "1,0", "1,1.5707963267948966"],
            ["--tol", "nan", "isometry", "1", "0"],
            ["riccati", "zero", "1", "0.5", "0.5", "3", "--report-tol", "nan"],
            ["riccati", "zero", "1", "0.5", "0.5", "3", "--report-tol", "-1"],
        ],
    )
    def test_bad_tol_usage_error(self, argv):
        res = run_cli(*argv)
        flag = "--report-tol" if "--report-tol" in argv else "--tol"
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"warpgeo: error: {flag} must be positive and finite\n"

    def test_seed_flag_usage_error(self):
        # The isometry frame is not random: there is no seed to set.
        res = run_cli("--seed", "0", "isometry", "1", "0")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("warpgeo: error: ")

    def test_warp_parse_error(self):
        assert run_cli("--warp", "flat:1", "curvature", "1", "2", "3").returncode == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"warp": "r"}', "malformed config warp 'r'"),
            ('{"warp": {"params": []}}', "malformed config warp {'params': []}"),
            ("[1, 2]", "must hold a JSON object"),
            ('{"warp": {"kind": "flat", "params": 5}}', "malformed config warp"),
            ('{"warp": {"kind": "flat", "params": "25"}}', "malformed config warp"),
            ('{"warp": {"kind": "flat", "params": [true, 5]}}', "malformed config warp"),
            ('{"warp": {"kind": "flat", "params": [1%s, 5]}}' % ("0" * 400), "malformed config warp"),
            ('{"output": {"path": 5}}', "path is a string or null"),
            ('{"integrator": {"rel_tol": 1e-10}}', "unknown config key 'integrator'"),
            ('{"seed": 0}', "unknown config key 'seed'; expected warp or output"),
            ('{"seed": null}', "unknown config key 'seed'"),
            ('{"seed": 1e999}', "unknown config key 'seed'"),
        ],
        ids=["warp-string", "warp-no-kind", "list", "params-number", "params-string",
             "params-bool", "params-huge", "path-number", "integrator", "seed", "seed-null",
             "seed-overflow"],
    )
    def test_malformed_config_usage_error(self, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        res = run_cli("curvature", "1", "2", "3", env_extra={"WARPGEO_CONFIG": str(cfg)})
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("warpgeo: error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr


class TestReadme:
    def test_commands_found(self):
        assert len(README_COMMANDS) >= 8
        assert any(readme_exit_status(ln) == 2 for ln in README_COMMANDS)

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_command_exit_status(self, line, tmp_path):
        res = run_cli(*shlex.split(line, comments=True)[1:], cwd=tmp_path)
        assert res.returncode == readme_exit_status(line), res.stderr
        assert "Traceback" not in res.stderr

    def test_config_block(self, tmp_path):
        (block,) = [b for b in readme_blocks("json") if "warp" in b]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(block)
        res = run_cli("curvature", "1", "2", "3", env_extra={"WARPGEO_CONFIG": str(cfg)})
        assert res.returncode == 0, res.stderr
        assert [row["K"] for row in json.loads(res.stdout)] == [0.0, 0.0, 0.0]
