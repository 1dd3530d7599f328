"""The exhaustive cross-check sweep above tier-1's periods.

Every atlas row enforces every cross-check between the sequence side and
the tree side, so running ``enumerate --period N --exact --jobs 2`` is the
sweep, and the sha256 of its stdout pins the outcome: 30,720 sequences over
periods 13-16.  The header line embeds ``__version__``, so a version bump
changes these digests legitimately.

Kept out of tier-1 by ``testpaths``; run it with

    PYTHONPATH=src python -m pytest -q slow
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

ATLAS_DIGESTS = {
    13: "42d85b1c906175b410f7ff3f394f15bc506b2c94ddfd1044237290c9a1d9c276",
    14: "5939aeef19f1c8e03e1d8e7a8adf87457c2b2684a8506a070b4c37ae1a5316f1",
    15: "1fad365cdbc734f41e89b85a9b700de45b4dafcafdf630f6258d89a16b9341b3",
    16: "a2b00376da1745668f3e964145967b27bb4d3cfd1710361b42790c2f99f14939",
}


@pytest.mark.parametrize("period", sorted(ATLAS_DIGESTS))
def test_atlas_digest(period):
    result = subprocess.run(
        [sys.executable, "-m", "hubbardtree.cli", "enumerate",
         "--period", str(period), "--exact", "--jobs", "2"],
        capture_output=True, timeout=900)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout.count(b"\n") == 1 + 2 ** (period - 2)
    assert hashlib.sha256(result.stdout).hexdigest() == ATLAS_DIGESTS[period]
