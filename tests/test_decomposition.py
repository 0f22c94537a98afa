from fractions import Fraction

import pytest

from tablezeta import (
    character_formula_idempotents,
    character_table,
    factor_min_poly,
    find_generator,
    maximal_order,
    primitive_idempotents,
)
from tablezeta.algebra import TableAlgebra
from tablezeta.decomposition import order_closed_under_multiplication
from tablezeta.errors import DegreeTooLarge
from tablezeta.families import conference, drt, fusion
from tablezeta.pipeline import analyze

BUILTINS = [drt(1), drt(6), conference(1), conference(3)] + [
    fusion(n) for n in ("fib", "c2", "ising", "reps3", "psu5l2", "e6", "c3")
]


def test_find_generator_drt():
    gen, mu = find_generator(drt(1))
    assert gen == 1
    assert mu == (-6, -1, -2, 1)  # (x-3)(x^2+x+2)


def test_find_generator_conference():
    gen, mu = find_generator(conference(1))
    assert gen == 1
    assert mu == (2, -3, -1, 1)  # (x-2)(x^2+x-1)


def test_find_generator_psu5l2_picks_certified_cubic():
    gen, mu = find_generator(fusion("psu5l2"))
    assert gen == 2
    assert mu == (1, -1, -2, 1)  # x^3 - 2x^2 - x + 1


def test_factor_min_poly_drt():
    fs = factor_min_poly((-6, -1, -2, 1))
    assert fs == [(-3, 1), (2, 1, 1)]


def test_factor_min_poly_certified_cubic_irreducible():
    assert factor_min_poly((1, -1, -2, 1)) == [(1, -1, -2, 1)]


def test_factor_min_poly_difference_of_squares():
    assert factor_min_poly((-1, 0, 1)) == [(-1, 1), (1, 1)]


def test_factor_min_poly_quartic_splits():
    # (x^2 - 2)(x^2 - 3) = x^4 - 5x^2 + 6
    assert factor_min_poly((6, 0, -5, 0, 1)) == [(-3, 0, 1), (-2, 0, 1)]


def test_factor_min_poly_degree_cap():
    # x^5 - x - 1 has no integer root, so a quintic is left to factor
    with pytest.raises(DegreeTooLarge):
        factor_min_poly((-1, -1, 0, 0, 0, 1))


def test_cyclic_group_ring_c6_decomposes():
    # Z[C6]: the generator's minimal polynomial x^6 - 1 has degree 6, but
    # only the quartic (x^2 - x + 1)(x^2 + x + 1) is left once the integer
    # roots 1 and -1 are divided out
    lam = [[[int(k == (i + j) % 6) for k in range(6)] for j in range(6)] for i in range(6)]
    order = maximal_order(TableAlgebra(6, lam, tuple(-i % 6 for i in range(6))))
    assert order.decomposition.factors == [(-1, 1), (1, 1), (1, -1, 1), (1, 1, 1)]
    assert (order.index, order.conductor, order.bad_primes) == (72, 6, [2, 3])


def test_primitive_idempotents_drt():
    e = primitive_idempotents(drt(1))
    assert e[0] == (Fraction(1, 7),) * 3
    assert e[1] == (Fraction(6, 7), Fraction(-1, 7), Fraction(-1, 7))


def test_primitive_idempotents_ising():
    e = primitive_idempotents(fusion("ising"))
    assert (Fraction(1, 2), Fraction(-1, 2), 0) in e
    assert (Fraction(1, 2), Fraction(1, 2), 0) in e


def test_primitive_idempotents_rank_one():
    t = TableAlgebra(1, [[[1]]], (0,))
    assert primitive_idempotents(t) == [(1,)]


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_idempotent_suite(t):
    data = analyze(t)
    assert data.decomposition.check_idempotent_suite(t)


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_analyze_matches_standalone_stages(t):
    # analyze takes everything from one maximal_order pass; each field must
    # equal what the stage computes on its own
    data = analyze(t)
    dec = data.decomposition
    gen, mu = find_generator(t)
    assert (dec.generator_index, dec.minpoly) == (gen, mu)
    assert dec.factors == factor_min_poly(mu)
    assert dec.idempotents == primitive_idempotents(t)
    assert dec.component_rings == data.order.rings
    assert data.order == maximal_order(t)
    assert data.algebra is t


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_character_formula_matches_crt(t):
    assert character_formula_idempotents(t) == analyze(t).decomposition.idempotents


def test_multiplicities_ising():
    # the complex multiplicities are (1, 1, 2); per Galois class that is
    # m = 1 on the conjugate pair of degree characters and m = 2 on phi
    ct = character_table(fusion("ising"))
    assert ct.order_n == 4
    assert len(ct.factors) == 2
    assert sorted(ct.multiplicities) == [1, 2]


def test_multiplicities_reps3():
    ct = character_table(fusion("reps3"))
    assert ct.order_n == 6
    assert sorted(ct.multiplicities) == [1, 2, 3]


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_degree_character_multiplicity_is_one(t):
    ct = character_table(t)
    # m_delta = w_delta * n lives in the degree field even when n is irrational
    m = ct.weights[ct.delta_index] * ct.order_n
    assert m.is_rational() and m.rational_value() == 1


def test_standard_trace_decomposition():
    # sum over classes of Tr(m_c chi_c(b_i)) equals n at i=0 and 0 elsewhere
    for t in (drt(1), conference(1), drt(6)):
        ct = character_table(t)
        n = ct.order_n
        for i in range(t.rank):
            total = Fraction(0)
            for ch, w in zip(ct.characters, ct.weights):
                total += (w * ch[i]).trace() * n
            assert total == (n if i == 0 else 0)


def test_maximal_order_drt():
    for u, n in ((1, 7), (3, 15)):
        data = maximal_order(drt(u))
        assert data.index == n
        assert data.conductor == n


def test_maximal_order_drt_u6_enlarged_component():
    # n = 27 is not squarefree: the quadratic component ring is the ring of
    # integers of Q(sqrt(-3)), one step above Z[theta], so the index gains
    # an extra factor 3 on top of n
    data = maximal_order(drt(6))
    assert data.index == 81
    assert data.bad_primes == [3]


def test_maximal_order_conference():
    for u, n in ((1, 5), (3, 13)):
        data = maximal_order(conference(u))
        assert data.index == n
        assert data.bad_primes == [n]


def test_maximal_order_c2():
    data = maximal_order(fusion("c2"))
    assert data.index == 2
    rows = {tuple(map(Fraction, row)) for row in data.basis}
    assert rows == {(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2))}


@pytest.mark.parametrize(
    "name,index,bad",
    [("fib", 1, []), ("c2", 2, [2]), ("ising", 2, [2]), ("reps3", 6, [2, 3]), ("psu5l2", 1, []), ("e6", 2, [2]), ("c3", 3, [3])],
)
def test_maximal_order_fusion(name, index, bad):
    data = maximal_order(fusion(name))
    assert data.index == index
    assert data.bad_primes == bad


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_maximal_order_is_a_ring(t):
    data = maximal_order(t)
    assert order_closed_under_multiplication(t, data.basis)
    # index * basis is integral
    for row in data.basis:
        for x in row:
            assert (Fraction(x) * data.index).denominator == 1


def test_idempotent_denominators_divide_n_standard():
    for t in (drt(1), drt(3), conference(1), conference(3)):
        n = sum(t.lam[i][t.involution[i]][0] for i in range(t.rank))
        for e in primitive_idempotents(t):
            for x in e:
                assert n % Fraction(x).denominator == 0
