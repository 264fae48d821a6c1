"""`structcode selftest` output is part of the behaviour contract.

The module sections and the fast criteria at the default seed must print
exactly the recorded lines; refactors and speed-ups may not change them.
"""

from pathlib import Path

from structcode import cli

GOLDEN = Path(__file__).parent / "data" / "selftest_golden.txt"
SECTIONS = ["core", "shelah", "search", "efgames", "coding", "reduction",
            "limits", "functors", "C1", "C4", "C6"]


def test_selftest_output_matches_golden(capsys):
    code = cli.main(["selftest", *SECTIONS])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
