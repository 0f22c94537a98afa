"""The full `decompose` report, byte for byte, in both formats.

`decompose_golden.json` maps each command line to its stdout, recorded
from the CLI at commit c35afea.  The set is the eleven built-ins: drt at
u = 1 and 6, conference at u = 1 and 3, and the seven fusion rings, each
as tsv and as `--format json-like`.
"""

import json
from pathlib import Path

import pytest

from tablezeta.cli import main

GOLDEN = json.loads((Path(__file__).parent / "decompose_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_decompose_report_matches_golden(command, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN[command]
