"""The CLI's output bytes, pinned across changes by their SHA-256 digests.

Every README command, plus two commands whose bytes depend on the order in
which the solver sums its stages, runs in a fresh process.  The exit code
and the digests of stdout and stderr must equal the ones recorded here, as
must the digest of the ``field.csv`` that README's ``riccati zero`` line
writes.  A change that moves one output bit fails this test; to record a
deliberate change, rerun with ``-s`` and copy the printed digests.
"""

import hashlib
import os
import shlex
import subprocess

import pytest
from test_cli import CLI, README_COMMANDS, ROOT

# (exit code, sha256(stdout), sha256(stderr)) per command line.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256(b"")
PINNED = {
    "warpgeo --warp one_over_r --format csv curvature 1 2 5": (
        0, "aacf016bee43e5aac7fa240cfa30ff32b082520b256bc742b47de347eb455823",
        EMPTY),
    "warpgeo --warp one_over_r geodesic 1 0 3.141592653589793 5"
    "  # inward ray, escapes at length 1": (
        0, "1094302420a45c2c92a958a0340139f3188498c35f55c9b24adeae8f945a3cea",
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
        0, "104867f17d7131abde09c280cc7c3ebfdf35d6baf6d6bb1be9f7505e9e2fc44c",
        EMPTY),
    "warpgeo --warp r isometry 1 2                         # holomorphic_isometry": (
        0, "98369b8b0c09458192445e5d45ee5bdc8c313d50dfbe814b61812e24da9f7290",
        EMPTY),
    "warpgeo --warp r geodesic 1 0 1 5": (
        0, "ef4c424c6f50d316e65f2e2b0f12c4e0ee8b540ed9948285f3d719f125eac390",
        EMPTY),
    "warpgeo riccati const:1 1 0 0.5 3": (
        0, "a00ca4c3022dfce9340abf555f443f619020b0b8e1d6092a2691f65e5b54f6d4",
        "5f8d4253b0cfbf51736afeb3458ee4f2b511738f4260ee0f21a54b1ccf19e529"),
}
FIELD_CSV = "b1053d02862977526388ed7b7c173e91d1570219baf0992ee49bcb1bcab61967"

EXTRA_COMMANDS = [
    "warpgeo --warp r geodesic 1 0 1 5",
    "warpgeo riccati const:1 1 0 0.5 3",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(line: str, cwd) -> tuple:
    env = dict(os.environ)
    env.pop("WARPGEO_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(CLI + shlex.split(line, comments=True)[1:], capture_output=True,
                          env=env, cwd=cwd, timeout=120)
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
