"""The 24 acceptance reports against a committed golden table.

``data/golden_checks.json`` holds, for each (n, p) of the acceptance sweep,
the parameters, the verdict and every check as ``[name, anchor, passed,
cause, margin, at]``. Names, anchors, verdicts and causes must match
exactly; floats to 1e-9 relative (1e-15 absolute), which tolerates libm and
SIMD differences across CPUs and numpy builds but no change of formula.
"""

import json
import math
import pathlib

import pytest

from ricci_forge.verify import report_to_dict

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_checks.json").read_text())
NS = (3, 5, 7, 9, 11, 13)
PS = (1, 2, 5, 10)


def _close(got, want):
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)


def test_golden_covers_the_sweep():
    assert sorted(GOLDEN) == sorted(f"{n},{p}" for n in NS for p in PS)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("p", PS)
def test_report_matches_golden(report_cache, n, p):
    want = GOLDEN[f"{n},{p}"]
    got = report_to_dict(report_cache(n, p))
    assert got["overall"] == want["overall"]
    assert got["params"].keys() == want["params"].keys()
    for key, value in want["params"].items():
        assert _close(got["params"][key], value), key
    assert len(got["checks"]) == len(want["checks"])
    for check, (name, anchor, passed, cause, margin, at) in zip(
            got["checks"], want["checks"]):
        assert (check["name"], check["anchor"], check["passed"], check["cause"]) \
            == (name, anchor, passed, cause)
        assert _close(check["margin"], margin), name
        assert _close(check["at"], at), name
