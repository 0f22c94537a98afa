"""The oracle's full series to N = 200 on the eleven built-ins.

`count_golden.json` maps each built-in (drt at u = 1 and 6, conference at
u = 1 and 3, and the seven fusion rings) to [a_1, ..., a_200] from
`count_ideals`, recorded at commit 5375fad, before the descent took the
maximal ideals of residue degree 1 from one characteristic polynomial at
the primes p with p^2 > N.
"""

import json
from pathlib import Path

import pytest

from tablezeta.families import conference, drt, fusion
from tablezeta.ideals import count_ideals

GOLDEN = json.loads((Path(__file__).parent / "count_golden.json").read_text())
FAMILIES = {"drt": drt, "conference": conference, "fusion": fusion}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_count_ideals_matches_golden(key):
    kind, arg = key.split()
    t = FAMILIES[kind](arg if kind == "fusion" else int(arg))
    assert list(count_ideals(t.lam, 200).counts) == GOLDEN[key]
