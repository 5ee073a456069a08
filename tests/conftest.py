import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from warpgeo import warp_exp, warp_flat, warp_neg2, warp_one_over_r, warp_r

SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(argv: list, *, env_extra=None, timeout=120, **kwargs):
    """``subprocess.run(argv)`` with its output captured, in the one
    environment every test child gets: the absolute ``src`` first on
    PYTHONPATH, so the child imports this package from any cwd; no
    WARPGEO_CONFIG but one that ``env_extra`` sets; and a timeout, so a
    hang fails its test instead of stalling the suite."""
    env = dict(os.environ)
    env.pop("WARPGEO_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run(argv, capture_output=True, env=env, timeout=timeout, **kwargs)


@pytest.fixture(scope="session")
def flat_warp():
    """h = 1/r: the flat featured metric dr^2 + r^2 dt^2."""
    return warp_one_over_r()


@pytest.fixture(scope="session")
def neg2_warp():
    """h = r: the featured metric with curvature -2/r^2."""
    return warp_r()


@pytest.fixture(scope="session")
def warp_family():
    """The five analytic warps exercised by cross-checks."""
    return {
        "one_over_r": warp_one_over_r(),
        "r": warp_r(),
        "exp": warp_exp(),
        "flat(2,5)": warp_flat(2.0, 5.0),
        "neg2(1,1,1)": warp_neg2(1.0, 1.0, 1.0),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
