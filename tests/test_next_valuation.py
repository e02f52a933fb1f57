"""Profiles where an arm of the paper's case analysis first reaches its next valuation.

The verify ladder (n <= 16) reaches each arm only at its smallest valuation
a.  These are the cheapest pairs where a rises: Case 1a and 1b at a = 2
(p = 5) and Case 2a at a = 3 (p = 3).  Each ``profile`` run must match its
closed form and pass the tail-sum identity, and its JSON is pinned by a
SHA-256 computed with the symmetric Bareiss tree-count witness, before the
remainder echelon replaced it.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from test_cli import run_cli


@pytest.mark.parametrize(
    "n,p,branch,expected",
    [
        ("25", "5", "Case 1a, a=2", "3c42279f1c6df73f8470c9e05f97a263783e30eb446228f48e51577d22b70a78"),
        ("26", "5", "Case 1b, a=2", "b58992b1390b98b4496f60fb31186e83e944e64edb674e56027cc33fc46202da"),
        ("28", "3", "Case 2a, a=3", "11b79dab1cc1a7a16c171612435e5431ff0c7f5d4fc12aed1821e70cc4f065b7"),
    ],
)
def test_profile_json(n, p, branch, expected, capsys):
    code, out, _ = run_cli(["profile", n, p, "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == branch
    assert report["match"] and report["mdim_ok"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected
