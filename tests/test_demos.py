"""Each demo script runs to completion and writes its CSV files."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

EXPECTED_CSV = {
    "connectivity_atlas": {"flat_atlas.csv"},
    "curvature_profiles": {
        f"curvature_{name}.csv"
        for name in ("exp", "flat_2_5", "neg2_1_1_1", "one_over_r", "r")
    },
    "geodesic_gallery": {f"flat_fan_{i}.csv" for i in range(5)}
    | {f"neg2_arch_{i}.csv" for i in range(4)},
    "isometry_classification": set(),  # prints only
    "prescribed_curvature": {
        "riccati_const_minus1.csv",
        "riccati_flat_blowup.csv",
        "riccati_neg2.csv",
    },
}


def test_every_demo_is_listed():
    assert {p.stem for p in DEMOS.glob("*.py")} == set(EXPECTED_CSV)


@pytest.mark.parametrize("name", sorted(EXPECTED_CSV))
def test_demo_runs_and_writes_csv(name, tmp_path, monkeypatch, capsys):
    script = DEMOS / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    written = {p.name for p in tmp_path.iterdir()}
    assert written == EXPECTED_CSV[name]
    for csv in written:
        lines = (tmp_path / csv).read_text().splitlines()
        assert len(lines) >= 2 and "," in lines[0]
