import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablezeta import LatticeHNF, count_ideals, count_ideals_at_prime, enumerate_sublattices, is_ideal
from tablezeta.errors import InputError
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.ideals import (
    _action_matrices,
    _count_for_index,
    _count_prime_power_dim2,
    _count_prime_power_dim3,
    _sublattice,
    divisor_tuples,
    quotient_ring_table,
)
from tablezeta.exact import hnf
from tablezeta.modp import rref


def sublattice_count_formula(n):
    "Number of index-n sublattices of Z^3: sum over d1 d2 d3 = n of d2 d3^2."
    return sum(d2 * d3 * d3 for d1, d2, d3 in divisor_tuples(n, 3))


def test_dim1_unique_lattice():
    lats = list(enumerate_sublattices(1, 5))
    assert len(lats) == 1 and lats[0].matrix == ((5,),)


def test_dim2_n2_three_lattices():
    assert sum(1 for _ in enumerate_sublattices(2, 2)) == 3


def test_dim3_n2_seven_lattices():
    assert sum(1 for _ in enumerate_sublattices(3, 2)) == 7


def test_enumeration_matches_formula_up_to_30():
    for n in range(1, 31):
        assert sum(1 for _ in enumerate_sublattices(3, n)) == sublattice_count_formula(n)


def test_enumeration_deterministic_order():
    first = [lat.matrix for lat in enumerate_sublattices(3, 4)][:3]
    assert first == [
        ((1, 0, 0), (0, 1, 0), (0, 0, 4)),
        ((1, 0, 0), (0, 1, 1), (0, 0, 4)),
        ((1, 0, 0), (0, 1, 2), (0, 0, 4)),
    ]


def test_enumeration_unique():
    seen = set()
    for lat in enumerate_sublattices(3, 12):
        assert lat.matrix not in seen
        assert lat.index == 12
        seen.add(lat.matrix)


def test_hnf_validation():
    with pytest.raises(InputError):
        LatticeHNF(2, ((2, 1), (1, 1)))  # not upper triangular
    with pytest.raises(InputError):
        LatticeHNF(2, ((1, 5), (0, 3)))  # entry not reduced


def test_is_ideal_full_lattice():
    t = drt(1)
    full = LatticeHNF(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert is_ideal(t.lam, full)


def test_is_ideal_zc2_examples():
    lam = fusion("c2").lam
    assert not is_ideal(lam, LatticeHNF(2, ((2, 0), (0, 1))))
    assert not is_ideal(lam, LatticeHNF(2, ((1, 0), (0, 2))))
    assert is_ideal(lam, LatticeHNF(2, ((1, 1), (0, 2))))


def test_count_ideals_rank_one_all_ones():
    lam = (((1,),),)  # Z, the rank-1 table b0 b0 = b0
    series = count_ideals(lam, 12)
    assert series.counts == (1,) * 12


def test_count_ideals_zc2():
    # local factor (1 - t + 2t^2)/(1-t)^2 at p=2: a_2 = 1, a_4 = 3
    series = count_ideals(fusion("c2").lam, 8)
    assert series.a(2) == 1
    assert series.a(4) == 3
    assert series.a(8) == 5


def test_count_ideals_drt1():
    series = count_ideals(drt(1).lam, 49)
    assert series.a(7) == 1
    assert series.a(49) == 8


def test_count_ideals_ising():
    series = count_ideals(fusion("ising").lam, 4)
    assert series.a(2) == 1 and series.a(4) == 3


def test_count_ideals_at_prime_zc2():
    assert count_ideals_at_prime(fusion("c2").lam, 2, 4) == [1, 1, 3, 5, 7]


def test_count_ideals_at_prime_drt6():
    assert count_ideals_at_prime(drt(6).lam, 3, 2) == [1, 1, 4]


PRIME_POWER_CASES = [
    (drt(1).lam, 7, 2),
    (drt(6).lam, 3, 4),
    (conference(1).lam, 5, 2),
    (fusion("reps3").lam, 2, 4),
    (fusion("reps3").lam, 3, 3),
    (fusion("psu5l2").lam, 7, 2),
    # deep enough that the progressions in c, a and b of the rank-3
    # kernel are each walked with d1, d2 > 1
    (fusion("ising").lam, 2, 8),
    (fusion("c3").lam, 3, 5),
    (conference(1).lam, 5, 3),
]


def collapse_at_prime(lam, p, kmax):
    "[a_{p^k}] from the collapse kernels, summed over the diagonals of each p^k."
    dim = len(lam)
    acts = _action_matrices(lam)
    kernel = _count_prime_power_dim3 if dim == 3 else _count_prime_power_dim2
    return [sum(kernel(acts, diag) for diag in divisor_tuples(p**k, dim)) for k in range(kmax + 1)]


def test_prime_power_collapse_matches_stream():
    # count_ideals_at_prime runs the descent, so the collapse kernels are
    # summed over the diagonals here to keep them checked at prime powers
    for lam, p, kmax in PRIME_POWER_CASES:
        slow = [_count_for_index((lam, len(lam), p**k)) for k in range(kmax + 1)]
        assert collapse_at_prime(lam, p, kmax) == slow


def test_prime_power_descent_matches_stream():
    for lam, p, kmax in PRIME_POWER_CASES:
        slow = [_count_for_index((lam, len(lam), p**k)) for k in range(kmax + 1)]
        assert count_ideals_at_prime(lam, p, kmax) == slow


def test_descent_matches_collapse_on_deep_towers():
    towers = [
        (fusion("ising").lam, 2, 13),
        (fusion("c3").lam, 3, 9),
        (conference(1).lam, 5, 6),
        (drt(1).lam, 7, 5),
        (drt(6).lam, 3, 9),
    ]
    for lam, p, kmax in towers:
        assert count_ideals_at_prime(lam, p, kmax) == collapse_at_prime(lam, p, kmax), (p, kmax)


def group_table(order, mul):
    "The multiplication tensor of Z[G] on the group basis, identity first."
    return tuple(
        tuple(tuple(1 if mul(i, j) == k else 0 for k in range(order)) for j in range(order)) for i in range(order)
    )


def test_descent_matches_stream_on_group_rings():
    # rank 4 and 6 have no collapse kernel: count_ideals descends
    cases = [
        (group_table(4, lambda i, j: (i + j) % 4), 24),  # Z[C4]
        (group_table(4, lambda i, j: i ^ j), 24),  # Z[C2 x C2]
        (group_table(6, lambda i, j: (i + j) % 6), 10),  # Z[C6]
    ]
    for lam, bound in cases:
        slow = tuple(_count_for_index((lam, len(lam), n)) for n in range(1, bound + 1))
        assert count_ideals(lam, bound).counts == slow


def test_descent_residue_field_f4():
    # x^4 + 2x^3 + 3x^2 + 2x + 5 = (x^2 + x + 1)^2 mod 2: one maximal ideal
    # above 2 with residue field F_4, and I/mI two-dimensional over F_4 at
    # index 16, where the children are the five F_4-lines, not F_2-planes
    lam = quotient_ring_table((5, 2, 3, 2, 1))
    assert count_ideals_at_prime(lam, 2, 5) == [1, 0, 1, 0, 5, 0]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3), max_size=3),
)
def test_descent_children_are_canonical_hnfs(p, diag, above, gens):
    # the descent keys each child by the HNF it builds from an echelon basis;
    # it must be the HNF exact.hnf gives for the same lattice
    rows = [[diag[0], above[0] % diag[1], above[1] % diag[2]], [0, diag[1], above[2] % diag[2]], [0, 0, diag[2]]]
    for j in range(3):  # reduce above the diagonal, as in an HNF
        for i in range(j):
            rows[i] = [x - rows[i][j] // rows[j][j] * y for x, y in zip(rows[i], rows[j])]
    sub = rref(gens, p)
    stacked = [[sum(u[k] * rows[k][l] for k in range(3)) for l in range(3)] for u in sub]
    stacked += [[p * x for x in row] for row in rows]
    assert _sublattice(tuple(map(tuple, rows)), sub, p) == hnf(stacked)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
@example([5, 2, 3, 2])  # residue field F_4 with I/mI of dimension 2 over it
@example([-1, 0, 0, 0])  # Z[x]/(x^4 - 1), the group ring of C4
def test_descent_matches_stream_on_random_quartic_orders(low):
    lam = quotient_ring_table((*low, 1))
    slow = tuple(_count_for_index((lam, 4, n)) for n in range(1, 17))
    assert count_ideals(lam, 16).counts == slow


def test_count_ideals_matches_stream_on_every_builtin():
    # count_ideals collapses rank 2 and 3 per diagonal for every index, not
    # only prime powers; the plain stream is the reference
    tables = [t.lam for t in (drt(1), drt(6), conference(1), conference(3))]
    tables += [fusion(name).lam for name in FUSION_NAMES]
    tables.append(quotient_ring_table((-1, -1, 1)))
    for lam in tables:
        slow = tuple(_count_for_index((lam, len(lam), n)) for n in range(1, 25))
        assert count_ideals(lam, 24).counts == slow


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3))
@example([2, 0, 1])  # x^3 + x^2 + 2: needs the progression in c and the early return of the rank-3 kernel
def test_collapse_matches_stream_on_random_cubic_orders(low):
    # Z[x]/(f) for a random monic cubic f: the kernel against the plain stream
    lam = quotient_ring_table((*low, 1))
    slow = tuple(_count_for_index((lam, 3, n)) for n in range(1, 17))
    assert count_ideals(lam, 16).counts == slow


def test_multiplicativity_small():
    for t in (fusion("ising"), drt(1)):
        series = count_ideals(t.lam, 36)
        for m in range(2, 7):
            for n in range(2, 7):
                if m * n <= 36 and __import__("math").gcd(m, n) == 1:
                    assert series.a(m * n) == series.a(m) * series.a(n)


def test_quotient_ring_table_golden_ratio_ring():
    lam = quotient_ring_table((-1, -1, 1))  # Z[x]/(x^2 - x - 1)
    series = count_ideals(lam, 12)
    # ramified at 5, split at 11, inert at 2 and 3
    assert series.a(5) == 1
    assert series.a(11) == 2
    assert series.a(2) == 0 and series.a(3) == 0
    assert series.a(4) == 1 and series.a(9) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=3))
def test_enumeration_count_hypothesis(n, dim):
    want = sum(
        d2 ** (1 if dim >= 2 else 0) * d3 ** (2 if dim >= 3 else 0)
        for tup in divisor_tuples(n, dim)
        for d2, d3 in [(tup[1] if dim >= 2 else 1, tup[2] if dim >= 3 else 1)]
    )
    assert sum(1 for _ in enumerate_sublattices(dim, n)) == want


def test_is_ideal_normalization_invariant():
    # is_ideal only sees canonical HNFs; enumerate twice and compare counts
    lam = fusion("reps3").lam
    a = [lat for lat in enumerate_sublattices(3, 6) if is_ideal(lam, lat)]
    b = [lat for lat in enumerate_sublattices(3, 6) if is_ideal(lam, lat)]
    assert a == b and len(a) == count_ideals(lam, 6).a(6)
