"""The Brent port against scipy's ``brentq``, which it follows iterate for iterate.

scipy serves only as the reference here: on seeded brackets of six function
families the port must return the same root (``==``), the same iteration
and function-call counts, and the same errors.
"""

import math
import random

import pytest
from scipy.optimize import brentq as scipy_brentq

from warpgeo._brentq import RTOL, brentq

N_BRACKETS = 15_000


def _family(rng: random.Random):
    """A function with a sign change at r0, scaled by 1e-5 .. 1e5, and r0."""
    kind = rng.randrange(6)
    r0 = rng.uniform(-3.0, 3.0)
    s = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-5.0, 5.0)
    if kind == 0:
        return (lambda x: s * (x - r0)), r0
    if kind == 1:
        p = rng.choice((3, 5, 7))
        return (lambda x: s * (x - r0) ** p), r0
    if kind == 2:
        c = rng.uniform(0.1, 5.0)
        return (lambda x: s * (math.exp(c * (x - r0)) - 1.0)), r0
    if kind == 3:
        return (lambda x: s * math.atan(1e3 * (x - r0))), r0
    if kind == 4:
        w = rng.uniform(0.5, 8.0)  # more sign changes, maybe an even number
        return (lambda x: s * math.sin(w * (x - r0))), r0
    return (lambda x: s * math.copysign(abs(x - r0) ** 0.3, x - r0)), r0


def _outcome(solver, f, a, b, **kwargs):
    """(root, iterations, function calls), or the error's type and message."""
    try:
        root, info = solver(f, a, b, full_output=True, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    assert info.converged and info.root == root
    return root, info.iterations, info.function_calls


def test_seeded_brackets_match_scipy():
    rng = random.Random(20211115)
    outcomes = []
    for _ in range(N_BRACKETS):
        f, r0 = _family(rng)
        # Mostly brackets around r0; one in ten lies to one side of it.
        a, b = r0 - rng.uniform(0.0, 5.0), r0 + rng.uniform(0.0, 5.0)
        if rng.random() < 0.1:
            a, b = b, b + rng.uniform(0.0, 5.0)
        if rng.random() < 0.5:
            a, b = b, a
        kwargs = {
            "xtol": rng.choice((2e-12, 1e-13, 1e-15, 1e-6, 1e-300)),
            "rtol": rng.choice((RTOL, 1e-10)),
            "maxiter": rng.choice((100, 100, 100, 200, 10)),
        }
        ours = _outcome(brentq, f, a, b, **kwargs)
        assert ours == _outcome(scipy_brentq, f, a, b, **kwargs), (a, b, kwargs)
        outcomes.append(ours[0] if isinstance(ours[0], type) else float)
    # The draw covers roots, sign errors and non-convergence alike.
    counts = {kind: outcomes.count(kind) for kind in set(outcomes)}
    assert set(counts) == {float, ValueError, RuntimeError}
    assert min(counts.values()) > 100 and counts[float] >= 10_000, counts


@pytest.mark.parametrize(
    "f, a, b, kwargs, error, match",
    [
        (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}, ValueError, "xtol too small"),
        (lambda x: x - 0.5, 0.0, 1.0, {"xtol": -1e-12}, ValueError, "xtol too small"),
        (lambda x: x - 0.5, 0.0, 1.0, {"rtol": RTOL / 2}, ValueError, "rtol too small"),
        (lambda x: x - 0.5, 0.0, 1.0, {"maxiter": -1}, ValueError, "maxiter"),
        (lambda x: x + 2.0, 0.0, 1.0, {}, ValueError, "different signs"),
        (lambda x: 1e-200, 0.0, 1.0, {}, ValueError, "different signs"),
        (lambda x: math.nan, 0.0, 1.0, {}, ValueError, "NaN"),
        (lambda x: math.nan if x > 0.6 else x - 0.5, 0.0, 1.0, {}, ValueError, "NaN"),
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0, {"maxiter": 2}, RuntimeError, "converge"),
    ],
    ids=["xtol-zero", "xtol-negative", "rtol-below-4eps", "maxiter-negative",
         "same-sign", "same-sign-tiny", "nan-at-end", "nan-inside", "maxiter"],
)
def test_errors_are_scipys(f, a, b, kwargs, error, match):
    with pytest.raises(error, match=match) as ours:
        brentq(f, a, b, **kwargs)
    with pytest.raises(error) as theirs:
        scipy_brentq(f, a, b, **kwargs)
    assert str(ours.value) == str(theirs.value)


def test_zero_extrapolation_denominator_bisects():
    # Values near 1e-170 make dblk * dpre * (fblk - fpre) underflow to 0 in
    # 25 of the 52 iterations: C divides by zero and bisects, and so must
    # the port, where Python raises ZeroDivisionError instead.
    def f(x):
        return 1e-170 * (x - 0.3) ** 3

    ours = _outcome(brentq, f, 0.0, 1.0)
    assert ours == _outcome(scipy_brentq, f, 0.0, 1.0)
    assert ours == (0.30000000000039495, 52, 53)


@pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.0, 0.5)])
def test_root_at_an_end(a, b):
    # scipy leaves its iteration count unset on this path and reports
    # whatever the memory held (1 or 1086357200 in practice); the port
    # reports 0 iterations.
    root, calls = _outcome(scipy_brentq, lambda x: x - 0.5, a, b)[::2]
    assert _outcome(brentq, lambda x: x - 0.5, a, b) == (root, 0, calls) == (0.5, 0, 2)


def test_plain_call_returns_the_root():
    assert brentq(lambda x: x * x - 2.0, 0.0, 2.0) == scipy_brentq(lambda x: x * x - 2.0, 0.0, 2.0)
