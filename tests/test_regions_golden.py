"""The digit tree's region lists, region by region and in order.

`regions_golden.json` maps each case to the list that `decompose_domain`
returns, recorded at commit d4401a4.  A region is written as its
quadratic part (kind, valuation, depth), its rational part, and the
coefficients of its count, lowest degree first.  The cases are
{M : Z_pB} for every class representative at p in {3, 7}, m in {0, 1}
and v = +-1, the same at symbolic p for m in {0, 1}, and Lambda_0 and
Z_pB themselves in every one of those models.
"""

import json
from pathlib import Path

import pytest

from tablezeta.genus import (
    LatticeHNF,
    LocalModel,
    complementary_lattice,
    decompose_domain,
    enumerate_genus_representatives,
    triple_matrix,
)

GOLDEN = json.loads((Path(__file__).parent / "regions_golden.json").read_text())


def _models():
    for m in (0, 1):
        for p in (3, 7):
            for v in (1, -1):
                yield f"p={p} m={m} v={v}", LocalModel(p, m, v)
        yield f"p=symbolic m={m}", LocalModel(None, m)


def _lattices(model):
    "(name, lattice) for Lambda_0, Z_pB and every {M : Z_pB}."
    m = model.m
    if model.symbolic:
        yield "Lambda0", [[0, None, None], [None, 0, None], [None, None, 0]]
        yield "ZpB", [[m, None, None], [None, 0, 0], [None, None, 2 * m + 1]]
    else:
        yield "Lambda0", LatticeHNF(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        yield "ZpB", LatticeHNF(3, triple_matrix(model, model.lam_triple))
    for triple in enumerate_genus_representatives(model):
        yield "{M%s : ZpB}" % (triple,), complementary_lattice(model, triple)


def region_rows(regions):
    "The regions as JSON-ready lists: quadratic part, rational part, count coefficients."
    return [
        [
            [reg.quadratic.kind, reg.quadratic.valuation, reg.quadratic.depth],
            [reg.rational.kind, reg.rational.valuation, reg.rational.depth],
            list(reg.count.c),
        ]
        for reg in regions
    ]


CASES = {
    f"{model_name} {name}": (model, lattice)
    for model_name, model in _models()
    for name, lattice in _lattices(model)
}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_decompose_domain_matches_golden(key):
    model, lattice = CASES[key]
    assert region_rows(decompose_domain(model, lattice)) == GOLDEN[key]
