import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablezeta.decomposition import maximal_order
from tablezeta.exact import hnf, hnf_square, primes_up_to
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.polys import pmul
from tablezeta.modp import (
    _ideal_generators,
    _linear_part,
    factor,
    is_gorenstein,
    kernel,
    kernel_mod_pk,
    maximal_ideals,
    multiply,
    pivots,
    root_count,
    rref,
    socle_dimension,
)

from references import cyclotomic, good_prime_tables, greedy_ideal_generators, quotient_ring_table


def residue_degrees(lam, p):
    return sorted(m.f for m in maximal_ideals(lam, p))


def _horner(poly, x, p):
    "The value at x mod p of a polynomial given by ascending coefficients."
    out = 0
    for c in reversed(poly):
        out = (out * x + c) % p
    return out


def test_rref_is_canonical():
    a = rref([(1, 2, 3), (2, 4, 0), (0, 0, 0)], 5)
    b = rref([(0, 0, 1), (3, 1, 4)], 5)
    assert a == b == ((1, 2, 0), (0, 0, 1))
    assert pivots(a) == (0, 2)


def test_kernel_is_the_left_null_space():
    rows = [(1, 2, 0), (2, 4, 0), (0, 1, 1), (1, 3, 1)]
    ker = kernel(rows, 7)
    assert len(ker) == 2
    for x in ker:
        assert all(sum(xi * row[j] for xi, row in zip(x, rows)) % 7 == 0 for j in range(3))


def stacked_hnf_kernel(cmat, modulus):
    """Reference for kernel_mod_pk: the x with x * cmat = 0 mod modulus, read
    off the HNF of (cmat | I) stacked over (modulus I | 0) as the rows whose
    cmat part vanishes, plus modulus * Z^n."""
    n, k = len(cmat), len(cmat[0])
    stacked = [tuple(cmat[i]) + tuple(int(j == i) for j in range(n)) for i in range(n)]
    stacked += [tuple(modulus * (c == j) for c in range(k)) + (0,) * n for j in range(k)]
    sols = [row[k:] for row in hnf(stacked) if not any(row[:k])]
    return hnf_square(tuple(sols) + tuple(tuple(modulus * (j == i) for j in range(n)) for i in range(n)))


@st.composite
def _pk_systems(draw):
    "(rows, p, K): a 3 x k system whose entries are p^e times small cofactors."
    p = draw(st.sampled_from([3, 5, 7, 11]))
    big = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.sampled_from([3, 6, 9]))
    entry = st.builds(lambda e, c: p**e * c, st.integers(min_value=0, max_value=big + 1), st.integers(-30, 30))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=3, max_size=3))
    return rows, p, big


@settings(max_examples=200, deadline=None)
@given(_pk_systems())
@example(([[0] * 9] * 3, 3, 4))  # the zero system
@example(([[11**2 * c for c in range(-3, 3)]] * 3, 11, 2))  # a system that is 0 mod p^K
def test_kernel_mod_pk_matches_stacked_hnf(system):
    rows, p, big = system
    got = kernel_mod_pk(rows, p, big)
    assert got == stacked_hnf_kernel(rows, p**big)
    for x in got:
        assert all(sum(xi * row[j] for xi, row in zip(x, rows)) % p**big == 0 for j in range(len(rows[0])))


def test_kernel_mod_pk_single_pivot():
    # x * (3, 0, 0)^T = 0 mod 27 is 9 | x_0; the other coordinates are free
    assert kernel_mod_pk([(3,), (0,), (0,)], 3, 3) == ((9, 0, 0), (0, 1, 0), (0, 0, 1))


def test_golden_ratio_ring_primes():
    # Z[x]/(x^2 - x - 1): inert at 2, ramified at 5, split at 11
    lam = quotient_ring_table((-1, -1, 1))
    assert residue_degrees(lam, 2) == [2]
    assert residue_degrees(lam, 5) == [1]
    assert residue_degrees(lam, 11) == [1, 1]


def test_group_ring_c6_primes():
    # x^6 - 1 = (x - 1)(x + 1)(x^2 + x + 1)(x^2 - x + 1)
    lam = quotient_ring_table((-1, 0, 0, 0, 0, 0, 1))
    assert residue_degrees(lam, 2) == [1, 2]  # (x + 1)^2 (x^2 + x + 1)^2
    assert residue_degrees(lam, 3) == [1, 1]  # (x - 1)^3 (x + 1)^3
    assert residue_degrees(lam, 5) == [1, 1, 2, 2]
    assert residue_degrees(lam, 7) == [1] * 6


def test_more_fields_than_residues():
    # Z^4 as b0 = 1 and three orthogonal idempotents: four copies of F_2 at
    # p = 2, which one element's two eigenvalues cannot separate
    lam = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for j in range(4):
        lam[0][j][j] = lam[j][0][j] = 1
    for i in range(1, 4):
        lam[i][i][i] = 1
    assert residue_degrees(lam, 2) == [1, 1, 1, 1]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    st.sampled_from([2, 3, 5, 7]),
)
def test_maximal_ideals_are_maximal_ideals(low, p):
    # each is an ideal of codimension f, generated by its generators; the
    # residue degrees add up to at most the degree, and those of degree 1
    # are the roots of the cubic mod p
    poly = (*low, 1)
    lam = quotient_ring_table(poly)
    unit = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    found = maximal_ideals(lam, p)
    assert found and sum(m.f for m in found) <= 3
    roots = [x for x in range(p) if sum(c * x**k for k, c in enumerate(poly)) % p == 0]
    assert sum(m.f == 1 for m in found) == len(roots)
    for m in found:
        assert len(m.basis) == 3 - m.f
        assert rref([multiply(lam, g, e, p) for g in m.basis for e in unit] + list(m.basis), p) == m.basis
        span = rref([multiply(lam, g, e, p) for g in m.generators for e in unit], p)
        assert span == m.basis


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5),
    st.sampled_from([2, 3, 5, 7, 11, 13, 97, 997]),
)
@example([0, -2, -2], 997)  # e6's chi at the largest prime of its count to 1000
@example([0, 0, 0], 7)  # x^3: one root, repeated
@example([-1], 2)  # x - 1
def test_root_count_is_the_number_of_distinct_roots(low, p):
    f = (*low, 1)
    assert root_count(f, p) == sum(1 for a in range(p) if _horner(f, a, p) == 0)


def group_ring(*orders):
    "The table of Z[C_n1 x C_n2 x ...] on the group elements, identity first."
    elements = [()]
    for n in orders:
        elements = [g + (a,) for g in elements for a in range(n)]
    where = {g: i for i, g in enumerate(elements)}
    r = len(elements)
    lam = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            lam[i][j][where[tuple((a + b) % n for a, b, n in zip(g, h, orders))]] = 1
    return lam


BUILT_IN = {
    **{f"drt({u})": drt(u) for u in (1, 6, 15, 18, 24, 36, 60, 141)},
    **{f"conference({u})": conference(u) for u in (1, 3, 11, 29)},
    **{name: fusion(name) for name in FUSION_NAMES},
}


@pytest.mark.parametrize("label", BUILT_IN)
def test_socle_test_holds_at_every_built_in_bad_prime(label):
    lam = BUILT_IN[label].lam
    for p in maximal_order(BUILT_IN[label]).bad_primes:
        assert is_gorenstein(lam, maximal_ideals(lam, p), p), p


@pytest.mark.parametrize("orders", [(4,), (6,), (5,), (7,), (8,), (2, 2), (3, 3)])
def test_group_rings_are_gorenstein(orders):
    # Z G is a symmetric algebra over Z, so Gorenstein at every p dividing |G|
    lam = group_ring(*orders)
    for p in {p for n in orders for p in (2, 3, 5, 7) if n % p == 0}:
        assert is_gorenstein(lam, maximal_ideals(lam, p), p), p


def test_socle_of_a_field_is_the_field():
    # Z[x]/(x^2 - x - 1) is inert at 2: Lambda / 2 Lambda = F_4, whose one
    # maximal ideal 0 has all of F_4 as its annihilator
    lam = quotient_ring_table((-1, -1, 1))
    (m,) = maximal_ideals(lam, 2)
    assert (m.f, socle_dimension(lam, m, 2)) == (2, 2)


@pytest.mark.parametrize("label, lam", list(good_prime_tables().items()))
def test_generator_search_stops_where_the_greedy_search_ends(label, lam):
    # the round that stops at the first member completing the ideal picks
    # the members the full greedy round picks, at every maximal ideal at
    # every p <= 200, p | D included
    for p in primes_up_to(200):
        for m in maximal_ideals(lam, p):
            assert m.generators == _ideal_generators(lam, m.basis, p) == greedy_ideal_generators(lam, m.basis, p), p


@pytest.mark.parametrize(
    "poly, p",
    [((-1, -1, 1), 11), ((-1, -1, 1), 2), ((-1, 0, 0, 0, 0, 1), 11), ((-1, 0, 0, 0, 0, 1), 19), ((-2, 0, 0, 1), 31), ((6, -5, 1), 7)],
)
def test_split_roots_divides_out_each_root(poly, p):
    # modp.factor splits chi, squarefree mod p, into its roots and the rest:
    # the linear factors are x - a at the Horner scan's roots a, and chi is
    # the product of the factors, mod p
    found = factor(poly, p)
    assert sorted(-g[0] % p for g in found if len(g) == 2) == [a for a in range(p) if _horner(poly, a, p) == 0]
    product = [1]
    for g in found:
        product = polymul_mod(product, g, p)
    assert product == [x % p for x in poly]


@pytest.mark.parametrize(
    "poly, p",
    [((1, 0, -2, 0, 1), 3), ((1, 0, -2, 0, 1), 5), ((-1, -1, 1), 11), ((-1, -1, 1), 2), ((-1, 0, 0, 0, 0, 1), 11), ((-2, 0, 0, 1), 31)],
)
def test_linear_part_is_the_scan_that_factor_starts_with(poly, p):
    # maximal_ideals takes the roots alone (x^4 - 2x^2 + 1 at 3 and 5 for
    # Z[C2 x C2]); factor takes them as its linear factors and factors the
    # rest, which has no root
    roots, rest = _linear_part(poly, p)
    assert roots == [a for a in range(p) if _horner(poly, a, p) == 0]
    assert all(_horner(rest, a, p) for a in range(p))
    assert factor(poly, p) == sorted([[-a % p, 1] for a in roots] + factor(rest, p), key=lambda g: (len(g), g))


def polymul_mod(a, b, p):
    "The product mod p of two polynomials given by ascending coefficients."
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def polyrem_mod(a, b, p):
    "a mod b mod p, for a monic b, trimmed."
    a = [x % p for x in a]
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        a = [(x - c * b[i - shift]) % p if i >= shift else x for i, x in enumerate(a)][:-1]
    while a and a[-1] == 0:
        a.pop()
    return a


@st.composite
def _monic_products(draw):
    """(f, p): f a monic integer polynomial of degree 1 .. 6, the product of
    one to three monic factors, each taken once or twice, so that f mod p
    often has repeated factors."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    f = [1]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        g = [*draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3)), 1]
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            if len(f) + len(g) - 2 <= 6:
                f = pmul(f, g)
    return tuple(f), p


@settings(max_examples=150, deadline=None)
@given(_monic_products())
@example(((1, 0, 2, 0, 1), 3))  # (x^2 + 1)^2: a repeated factor of degree 2
@example(((0, 0, 0, 0, 0, 0, 1), 2))  # x^6
@example(((-1, 0, 0, 0, 0, 0, 1), 7))  # x^6 - 1 splits into six roots mod 7
def test_factor_degrees_are_the_residue_degrees(case):
    # against an independent route: F_p[x]/(f) has one maximal ideal per
    # distinct irreducible factor of f mod p, of residue degree its degree,
    # and each factor divides f
    f, p = case
    found = factor(f, p)
    assert sorted(len(g) - 1 for g in found) == residue_degrees(quotient_ring_table(f), p)
    assert len({tuple(g) for g in found}) == len(found)
    for g in found:
        assert g[-1] == 1 and polyrem_mod(f, g, p) == []


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.sampled_from(primes_up_to(100) + [997, 6553]))
def test_factor_of_a_cyclotomic_polynomial(n, p):
    # against theory: for p not dividing n, Phi_n mod p is the product of
    # phi(n) / ord_n(p) distinct irreducibles, each of degree ord_n(p), the
    # order of p in (Z/n)^*
    if n % p == 0:
        return
    order = next(k for k in range(1, n + 1) if pow(p, k, n) == 1 % n)
    phi = cyclotomic(n)
    assert [len(g) - 1 for g in factor(phi, p)] == [order] * ((len(phi) - 1) // order)
