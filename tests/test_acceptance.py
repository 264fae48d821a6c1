"""Acceptance gate: every criterion at its pinned scale and tolerance.

Each test prints the criterion's machine-readable line so the pytest output
doubles as the acceptance report, and compares it with the recorded line
in data/acceptance_golden.txt. `structcode selftest` runs the same
functions.
"""

from pathlib import Path

import pytest

from structcode.acceptance import ACCEPTANCE, DEFAULT_SEED

GOLDEN = {
    line.split()[0].removeprefix("criterion="): line
    for line in (Path(__file__).parent / "data" / "acceptance_golden.txt").read_text().splitlines()
}


@pytest.mark.parametrize(
    "cid,description,fn", ACCEPTANCE, ids=[cid for cid, _, _ in ACCEPTANCE]
)
def test_criterion(cid, description, fn, capsys):
    result = fn(DEFAULT_SEED)
    with capsys.disabled():
        print(f"\n{result.line()}   # {description} [{result.elapsed:.1f}s]")
    assert result.passed, result.line()
    assert result.line() == GOLDEN[cid]
