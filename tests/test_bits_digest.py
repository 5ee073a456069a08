"""The hashing of ``tools/bits_digest.py``.  The tool itself runs on two
checkouts, outside the suite."""

import importlib.util
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
