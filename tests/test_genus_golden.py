"""The full `genus` report, byte for byte: every M(r,i,j) row (index,
measure, zeta) and the total.

`genus_golden.json` maps each command line to its stdout, recorded from
the CLI at commit 62f4f84.  The set is drt and conference at
p in {3, 7, 47, 53, 101} with v_p(n) in {1, 3}, where n = p^k w for the
least odd cofactor w prime to p that gives the family's n mod 4 (so both
signs of the unit v occur), plus the symbolic reports at m = 0 and 1.
"""

import json
from pathlib import Path

import pytest

from tablezeta.cli import main

GOLDEN = json.loads((Path(__file__).parent / "genus_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_genus_report_matches_golden(command, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN[command]
