import re
from fractions import Fraction
from math import isqrt

import pytest

import references
from tablezeta import decomposition, find_generator, maximal_order
from tablezeta.algebra import TableAlgebra
from tablezeta.errors import DegreeTooLarge, MaximalityUncertified
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.polys import factor_rational, pdeg, pdiv_exact, pmul

from references import (
    character_formula_idempotents,
    character_table,
    crt_idempotents,
    group_table,
    idempotent_suite_holds,
    maximal_order_by_fractions,
    order_closed_under_multiplication,
    pdivmod,
    pinv_mod,
    quotient_ring_table,
    tensor_table,
)

BUILTINS = [drt(1), drt(6), conference(1), conference(3)] + [
    fusion(n) for n in ("fib", "c2", "ising", "reps3", "psu5l2", "e6", "c3")
]


def test_find_generator_drt():
    gen, mu = find_generator(drt(1))
    assert gen == (0, 1, 0)
    assert mu == (-6, -1, -2, 1)  # (x-3)(x^2+x+2)


def test_find_generator_conference():
    gen, mu = find_generator(conference(1))
    assert gen == (0, 1, 0)
    assert mu == (2, -3, -1, 1)  # (x-2)(x^2+x-1)


def test_find_generator_psu5l2_picks_certified_cubic():
    gen, mu = find_generator(fusion("psu5l2"))
    assert gen == (0, 0, 1)
    assert mu == (1, -1, -2, 1)  # x^3 - 2x^2 - x + 1


def test_factor_min_poly_drt():
    fs = factor_rational((-6, -1, -2, 1))
    assert fs == [(-3, 1), (2, 1, 1)]


def test_factor_min_poly_certified_cubic_irreducible():
    assert factor_rational((1, -1, -2, 1)) == [(1, -1, -2, 1)]


def test_factor_min_poly_difference_of_squares():
    assert factor_rational((-1, 0, 1)) == [(-1, 1), (1, 1)]


def test_factor_min_poly_quartic_splits():
    # (x^2 - 2)(x^2 - 3) = x^4 - 5x^2 + 6
    assert factor_rational((6, 0, -5, 0, 1)) == [(-3, 0, 1), (-2, 0, 1)]


def test_factor_min_poly_degree_cap():
    # x^5 - x - 1 has no integer root, so a quintic is left to factor
    with pytest.raises(DegreeTooLarge):
        factor_rational((-1, -1, 0, 0, 0, 1))


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_pinv_mod_inverts_each_cofactor(t):
    # h = mu/f is a unit mod each irreducible factor f of the squarefree mu,
    # and a multiple of f is not
    _, mu = find_generator(t)
    for f in factor_rational(mu):
        h = pdiv_exact(mu, f)
        inv = pinv_mod(h, f)
        assert pdeg(inv) < pdeg(f)
        assert pdivmod(pmul(h, inv), f)[1] == (1,)
        for g in (f, mu, pmul(f, (2, 1))):
            with pytest.raises(ZeroDivisionError):
                pinv_mod(g, f)


def test_cyclic_group_ring_c6_decomposes():
    # Z[C6]: the generator's minimal polynomial x^6 - 1 has degree 6, but
    # only the quartic (x^2 - x + 1)(x^2 + x + 1) is left once the integer
    # roots 1 and -1 are divided out
    lam = [[[int(k == (i + j) % 6) for k in range(6)] for j in range(6)] for i in range(6)]
    order = maximal_order(TableAlgebra(6, lam, tuple(-i % 6 for i in range(6))))
    assert order.factors == [(-1, 1), (1, 1), (1, -1, 1), (1, 1, 1)]
    assert (order.index, order.conductor, order.bad_primes) == (72, 6, [2, 3])


def test_primitive_idempotents_drt():
    e = maximal_order(drt(1)).idempotents
    assert e[0] == (Fraction(1, 7),) * 3
    assert e[1] == (Fraction(6, 7), Fraction(-1, 7), Fraction(-1, 7))


def test_primitive_idempotents_ising():
    e = maximal_order(fusion("ising")).idempotents
    assert (Fraction(1, 2), Fraction(-1, 2), 0) in e
    assert (Fraction(1, 2), Fraction(1, 2), 0) in e


def test_primitive_idempotents_rank_one():
    t = TableAlgebra(1, [[[1]]], (0,))
    assert maximal_order(t).idempotents == [(1,)]


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_idempotent_suite(t):
    assert idempotent_suite_holds(maximal_order(t), t)


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_analyze_matches_standalone_stages(t):
    # maximal_order takes everything from one pass; each field must equal
    # what the stage computes on its own
    data = maximal_order(t)
    gen, mu = find_generator(t)
    assert (data.generator, data.minpoly) == (gen, mu)
    assert data.factors == factor_rational(mu)
    assert data.idempotents == crt_idempotents(t, gen, mu, factor_rational(mu))
    assert [pdeg(r) for r in data.rings] == [pdeg(f) for f in data.factors]
    assert data == maximal_order(t)


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: "-".join(t.names))
def test_character_formula_matches_crt(t):
    assert character_formula_idempotents(t) == maximal_order(t).idempotents


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
        for e in maximal_order(t).idempotents:
            for x in e:
                assert n % Fraction(x).denominator == 0


def generated_algebras():
    """The group rings Z[C3], Z[C4], Z[C6] and Z[C2 x C2] and the tensor
    products fib (x) c2, fib (x) fib and ising (x) c2, which verify passes."""
    cyclic = {f"Z[C{n}]": (group_table(n, lambda i, j, n=n: (i + j) % n), [-i % n for i in range(n)]) for n in (3, 4, 6)}
    fib, ising, c2 = (fusion(name).lam for name in ("fib", "ising", "c2"))
    self_dual = {
        "Z[C2xC2]": group_table(4, lambda i, j: i ^ j),
        "fib-x-c2": tensor_table(fib, c2),
        "fib-x-fib": tensor_table(fib, fib),
        "ising-x-c2": tensor_table(ising, c2),
    }
    tables = {**cyclic, **{label: (lam, list(range(len(lam)))) for label, lam in self_dual.items()}}
    return {label: TableAlgebra(len(lam), lam, inv) for label, (lam, inv) in tables.items()}


REFERENCE_ORDERS = {
    **{name: fusion(name) for name in FUSION_NAMES},
    **{f"drt({u})": drt(u) for u in range(1, 31)},
    **{f"conference({u})": conference(u) for u in range(1, 31) if isqrt(4 * u + 1) ** 2 != 4 * u + 1},
    **generated_algebras(),
}


@pytest.mark.parametrize("label", REFERENCE_ORDERS)
def test_maximal_order_equals_the_fraction_construction(label):
    # the integer construction against the one in Fractions: the CRT
    # idempotents by pinv_mod, the index from the determinant, ZB in
    # Lambda_0 from the inverse of the basis
    t = REFERENCE_ORDERS[label]
    data = maximal_order(t)
    assert (data.basis, data.idempotents, data.index, data.conductor, data.bad_primes) == maximal_order_by_fractions(t)
    assert all(type(x) is Fraction for row in (*data.basis, *data.idempotents) for x in row)


@pytest.mark.parametrize(
    "lam, message",
    [
        (group_table(5, lambda i, j: (i + j) % 5), "no maximal-order rule for degree 4"),
        (quotient_ring_table((-4, 0, 0, 1)), "cubic (-4, 0, 0, 1) carries no maximality certificate"),
    ],
    ids=["Z[C5]", "x^3-4"],
)
def test_uncertified_components_stop_both_constructions(lam, message):
    t = TableAlgebra(len(lam), lam, tuple(range(len(lam))))
    for build in (maximal_order, maximal_order_by_fractions):
        with pytest.raises(MaximalityUncertified, match=f"^{re.escape(message)}$"):
            build(t)


@pytest.mark.parametrize(
    "wrong, message",
    [
        # omega = 1, so omega e = e
        (lambda a0, a1, s: (1, 0, 1), "degenerate maximal-order basis"),
        # 2 omega doubles the determinant of the basis: the index 7 halves
        (lambda a0, a1, s: (2 * a0, 2 * a1, s), "non-integral index 7/2"),
        # omega + 1/2 keeps the determinant but moves the lattice off ZB
        (lambda a0, a1, s: (2 * a0 + s, 2 * a1, 2 * s), "ZB is not contained in the assembled order"),
    ],
    ids=["degenerate", "index", "containment"],
)
def test_a_wrong_ring_of_integers_is_refused(monkeypatch, wrong, message):
    # the three lattice checks of maximal_order, reached by giving drt(1)'s
    # quadratic component, x^2 + x + 2, a wrong omega; the Fraction
    # construction refuses it alike
    ring_polynomial = decomposition._ring_polynomial

    def wrong_omega(f):
        ring, omega = ring_polynomial(f)
        return ring, wrong(*omega) if pdeg(f) == 2 else omega

    for module in (decomposition, references):
        monkeypatch.setattr(module, "_ring_polynomial", wrong_omega)
    for build in (maximal_order, maximal_order_by_fractions):
        with pytest.raises(MaximalityUncertified, match=f"^{re.escape(message)}$"):
            build(drt(1))


@pytest.mark.parametrize(
    "wrong, message, closed",
    [
        # Z[3 omega] is a ring, of index 3 in Z[omega], but 3 omega is not a
        # root of omega's polynomial x^2 - x + 1
        (lambda a0, a1, s: (3 * a0, 3 * a1, s), "omega is not a root of its ring polynomial (1, -1, 1)", True),
        # (omega + 1/3)^2 has 1/9 in its coordinates: no ring
        (lambda a0, a1, s: (3 * a0 + s, 3 * a1, 3 * s), "the assembled order is not closed under multiplication", False),
    ],
    ids=["3omega", "omega+1/3"],
)
def test_a_wrong_ring_of_integers_past_the_lattice_checks_is_refused(monkeypatch, wrong, message, closed):
    # drt(6)'s quadratic component x^2 + x + 7 with a wrong omega: the
    # lattice holds ZB with an integral index (27 and 81), which the three
    # checks above accept, and so does the Fraction construction; its
    # basis is a ring or not as the reference check says
    ring_polynomial = decomposition._ring_polynomial

    def wrong_omega(f):
        ring, omega = ring_polynomial(f)
        return ring, wrong(*omega) if pdeg(f) == 2 else omega

    for module in (decomposition, references):
        monkeypatch.setattr(module, "_ring_polynomial", wrong_omega)
    with pytest.raises(MaximalityUncertified, match=f"^{re.escape(message)}$"):
        maximal_order(drt(6))
    assert order_closed_under_multiplication(drt(6), maximal_order_by_fractions(drt(6))[0]) == closed
