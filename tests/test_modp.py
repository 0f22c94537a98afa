from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablezeta.exact import hnf, hnf_square
from tablezeta.ideals import quotient_ring_table
from tablezeta.modp import kernel, kernel_mod_pk, maximal_ideals, multiply, pivots, rref


def residue_degrees(lam, p):
    return sorted(m.f for m in maximal_ideals(lam, p))


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
