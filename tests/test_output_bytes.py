"""The CLI's output bytes, pinned across changes by their SHA-256 digests.

Every README command, plus two commands whose bytes depend on the order in
which the solver sums its stages and one whose error message names the
start of a backward Riccati side, two that write a connecting path, the
h = r sweep and the ``geodesic``, ``curvature`` and ``isometry`` commands
on the exp warp, runs in a fresh process.  The exit code and the digests of
stdout and stderr must equal the ones recorded here, as must the digests of the
``field.csv`` that README's ``riccati zero`` line writes and of each
``--path-out`` file.  A change that moves one output bit fails this test; to record a
deliberate change, rerun with ``-s`` and copy the printed digests.

The same digests must come out under other OpenBLAS kernels, forced in the
child processes through ``OPENBLAS_CORETYPE``: no output may depend on the
BLAS numpy loads or on the kernel it picks for the CPU.
"""

import hashlib
import shlex

import numpy as np
import pytest
from conftest import run_child
from test_cli import CLI, README_COMMANDS

# (exit code, sha256(stdout), sha256(stderr)) per command line.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256(b"")
PINNED = {
    "warpgeo --warp one_over_r --format csv curvature 1 2 5": (
        0, "aacf016bee43e5aac7fa240cfa30ff32b082520b256bc742b47de347eb455823",
        EMPTY),
    "warpgeo --warp one_over_r geodesic 1 0 3.141592653589793 5"
    "  # inward ray, escapes at length 1": (
        0, "cc0b191f15c22dbf62f9042ca855cf7c4d4b3f4051268f4a2fa12d968daa3d09",
        EMPTY),
    "warpgeo connect 1,0 1,1.5707963267948966              # found, s = sqrt(2)": (
        0, "732f71a715bafcd2944942294776aa2dc00550f9204edab410b04ea640e2ddaa",
        EMPTY),
    "warpgeo connect 1,0 1,3.14159265358979                # exit status 2: no geodesic": (
        2, "928c1d2968a417fffc12a45065f9c055f97e53db0a15f8cf636d978db04ca9fd",
        EMPTY),
    "warpgeo --format csv sweep --metric flat --p0 1,0 --r1 1 --t1=-3.5:3.5:57": (
        0, "eaad10e25ed74308998bd91ce99813482741a67d8fa8eb1093bb2c961dca28b3",
        EMPTY),
    "warpgeo --format csv sweep --same-r --r0 1 --dt 0.5:7:14": (
        0, "4cf6396b8bda2c713ef9f22fa772c06eb36f11b70f130aa4733c6bc55a01d235",
        EMPTY),
    "warpgeo --out field.csv riccati zero 1 1 0.5 3        # blow-up report on stdout": (
        0, "8d8ddb77721ea627b1c29d4005d2d1dca58f95602fb597ba81c3e5b391d28086",
        EMPTY),
    "warpgeo --warp r isometry 1 2                         # holomorphic_isometry": (
        0, "7599911b377deadcfcd3635e4248c6de7f4993830efe1bceda739558f6a0ad95",
        EMPTY),
    "warpgeo --warp r geodesic 1 0 1 5": (
        0, "c36fdca208412555ca6aa6767922c9364890d38d1a010b7a5e0e4130b3838c11",
        EMPTY),
    "warpgeo riccati const:1 1 0 0.5 3": (
        0, "caf22b52f9586dbbb6399bbb3c7818d66946779303391fb332878a708f439cfe",
        "768da5fe66a002c858fa7e18117adc754edb34fb53ae7c3fcaca81ec4b8710a5"),
    "warpgeo riccati const:inf 1 1 0.5 3": (
        1, EMPTY,
        "80594c692095f53e8c528c26dda2759c3fd639713fe520016c6a9e8156bac13c"),
    "warpgeo connect 1,0 1,1.5707963267948966 --path-out p.csv": (
        0, "073efef6bf6fe9aa6444307e627147dbe15d0e944fc7eb24310fe4d2c3c96dbd",
        EMPTY),
    "warpgeo --warp r connect 1,0 2,1 --path-out p.csv": (
        0, "8aeee5c6dd21f258b36a16a74b52df4d657c28a9bb91a2b31279f99f8b6eb76b",
        EMPTY),
    "warpgeo --warp r --format csv sweep --metric neg2 --p0 1,0 --r1 2 --t1=-3:3:25": (
        0, "5fb1d05f13c3f02da3a7a357c346085fb01ba3da875e8904c6012422d60eace9",
        EMPTY),
    "warpgeo --warp exp geodesic 1 0 1 5": (
        0, "c83a659a81ab0c8fc30ca040b2693c775d79fb2f2da0072fbd01602cdc67b56d",
        EMPTY),
    "warpgeo --warp exp --format csv curvature 0.5 3 9": (
        0, "abde9524c7a5920cdbbcbc751e7262279f2675cc249571527b6c6508b2c9ed32",
        EMPTY),
    "warpgeo --warp exp isometry 0.5 1.5": (
        0, "9a6b760ea196f9b6e0caa9b54ad287621dbe1fa26c105daeac5a1761eba66dbc",
        EMPTY),
}
FIELD_CSV = "8168f9c58bf5c6db9974fc4738c6d9c68afa724cf51753d21d8820cafa1f8f67"
# The p.csv that each --path-out line writes.
PATH_CSV = {
    "warpgeo connect 1,0 1,1.5707963267948966 --path-out p.csv":
        "867e0f0d81f8f600adc814b439b1614df97da97f0b7d2e433d328fd3d6ca3305",
    "warpgeo --warp r connect 1,0 2,1 --path-out p.csv":
        "a9b1ce03bd837ab6b7bd9722382ada6f5d525a84d1c5f8d990384e332667a0ec",
}

EXP_COMMANDS = [
    "warpgeo --warp exp geodesic 1 0 1 5",
    "warpgeo --warp exp --format csv curvature 0.5 3 9",
    "warpgeo --warp exp isometry 0.5 1.5",
]

EXTRA_COMMANDS = [
    "warpgeo --warp r geodesic 1 0 1 5",
    "warpgeo riccati const:1 1 0 0.5 3",
    # The backward side fails at its start, which its error names as r0.
    "warpgeo riccati const:inf 1 1 0.5 3",
    *PATH_CSV,
    # Its iterations column counts the h = r bisection's and brentq's
    # evaluations.
    "warpgeo --warp r --format csv sweep --metric neg2 --p0 1,0 --r1 2 --t1=-3:3:25",
    # e^r on each command that evaluates a warp.
    *EXP_COMMANDS,
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(line: str, cwd, **env_extra) -> tuple:
    proc = run_child(CLI + shlex.split(line, comments=True)[1:], env_extra=env_extra, cwd=cwd)
    return proc.returncode, _digest(proc.stdout), _digest(proc.stderr)


def test_pinned_lines_are_the_commands():
    assert sorted(PINNED) == sorted(README_COMMANDS + EXTRA_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS + EXTRA_COMMANDS)
def test_command_bytes(line, tmp_path):
    got = _run(line, tmp_path)
    print(f"    {line!r}: {got!r},")
    assert got == PINNED.get(line)
    field = tmp_path / "field.csv"
    assert field.exists() == ("--out field.csv" in line)
    if field.exists():
        print(f"FIELD_CSV = {_digest(field.read_bytes())!r}")
        assert _digest(field.read_bytes()) == FIELD_CSV
    path = tmp_path / "p.csv"
    assert path.exists() == (line in PATH_CSV)
    if path.exists():
        print(f"PATH_CSV[{line!r}] = {_digest(path.read_bytes())!r}")
        assert _digest(path.read_bytes()) == PATH_CSV[line]


def _umath():
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed np.core
    return core._multiarray_umath


def _has_avx2() -> bool:
    """Whether numpy found AVX2 on this CPU, which OpenBLAS's Haswell kernel needs."""
    return _umath().__cpu_features__.get("AVX2", False)


@pytest.mark.parametrize("coretype", [
    pytest.param("Haswell", marks=pytest.mark.skipif(not _has_avx2(), reason="needs AVX2")),
    "Nehalem",
])
def test_bytes_do_not_depend_on_the_blas_kernel(coretype, tmp_path):
    got, want = {}, {}
    for k, line in enumerate(README_COMMANDS + EXTRA_COMMANDS):
        cwd = tmp_path / str(k)
        cwd.mkdir()
        got[line], want[line] = _run(line, cwd, OPENBLAS_CORETYPE=coretype), PINNED.get(line)
        field = cwd / "field.csv"
        if field.exists():
            got["field.csv"], want["field.csv"] = _digest(field.read_bytes()), FIELD_CSV
        path = cwd / "p.csv"
        if path.exists():
            got[line, "p.csv"], want[line, "p.csv"] = _digest(path.read_bytes()), PATH_CSV[line]
    assert "field.csv" in got and all((line, "p.csv") in got for line in PATH_CSV)
    assert got == want


# connect_neg2 scans phases asin(x) with x = 10.0 ** e from libm
# (connect._phases), not from np.geomspace, and the exp warp evaluates e^r
# by math.exp, not np.exp: the last bit of both numpy functions depends on
# the SIMD code numpy dispatches to.  The outputs must not change with
# numpy's dispatched CPU features off.
SIMD_COMMANDS = [
    "warpgeo --warp r connect 1,0 2,1 --path-out p.csv",
    "warpgeo --warp r --format csv sweep --metric neg2 --p0 1,0 --r1 2 --t1=-3:3:25",
    *EXP_COMMANDS,
]


@pytest.mark.parametrize("line", SIMD_COMMANDS)
def test_bytes_do_not_depend_on_simd_dispatch(line, tmp_path):
    umath = _umath()
    found = " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))
    runs = []
    for k, env in enumerate([{"NPY_DISABLE_CPU_FEATURES": found}, {}]):
        cwd = tmp_path / str(k)
        cwd.mkdir()
        got = _run(line, cwd, **env)
        path = cwd / "p.csv"
        runs.append((got, _digest(path.read_bytes()) if path.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == 0 and runs[0][0][2] == EMPTY
    if line in PINNED:
        assert runs[0] == (PINNED[line], PATH_CSV.get(line))
