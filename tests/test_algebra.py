from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablezeta import BasisKind, TableAlgebra, validate
from tablezeta import modp
from tablezeta.algebra import action_matrix, check_ring, multiply, ring_violations
from tablezeta.errors import InputError, NonCommutative
from tablezeta.families import conference, drt, fusion

from references import (
    AlgebraicNumber,
    NonIntegralRescale,
    degree_character_values,
    degree_map,
    regular_representation,
    rescale,
)


def test_drt_u1_is_valid():
    assert validate(drt(1)).ok


def test_c2_group_algebra_is_valid():
    assert validate(fusion("c2")).ok


def test_pseudo_inverse_violation_reported():
    # self-paired b with lambda[1][1][0] = 0: b*b never reaches the identity
    lam = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    t = TableAlgebra(2, lam, (0, 1))
    report = validate(t)
    assert not report.ok
    assert any(axiom == "pseudo-inverse" for axiom, _ in report.violations)


def test_validate_is_pure():
    t = drt(2)
    lam_before = t.lam
    validate(t)
    validate(t)
    assert t.lam == lam_before


def test_degree_map_drt():
    deltas = degree_map(drt(1))
    assert deltas == [1, 3, 3]


def test_degree_map_fib_golden_ratio():
    deltas = degree_map(fusion("fib"))
    phi = deltas[1]
    assert phi.minpoly == (-1, -1, 1)  # x^2 - x - 1
    assert not phi.is_rational
    assert AlgebraicNumber.from_rational(1) < phi < AlgebraicNumber.from_rational(2)


def test_degree_map_rank_one():
    t = TableAlgebra(1, [[[1]]], (0,))
    assert degree_map(t) == [1]


def test_regular_representation_c2_swap():
    assert regular_representation(fusion("c2"), 1) == ((0, 1), (1, 0))


def test_regular_representation_drt_columns():
    # columns: b*1 = b, b*b = b + 2b*, b*b" = 3 + b + b"
    m = regular_representation(drt(1), 1)
    assert m == ((0, 0, 3), (1, 1, 1), (0, 2, 1))


def test_regular_representation_identity_index():
    for t in (drt(1), conference(1), fusion("reps3")):
        m = regular_representation(t, 0)
        assert m == tuple(tuple(1 if i == j else 0 for j in range(t.rank)) for i in range(t.rank))


def test_regular_representation_out_of_range():
    with pytest.raises(IndexError):
        regular_representation(drt(1), 5)


def test_regular_representation_is_homomorphism():
    from tablezeta.exact import mat_mul

    for t in (drt(1), conference(1), fusion("ising"), fusion("psu5l2")):
        reps = [regular_representation(t, i) for i in range(t.rank)]
        for i in range(t.rank):
            for j in range(t.rank):
                lhs = mat_mul(reps[i], reps[j])
                rhs = tuple(
                    tuple(
                        sum(t.lam[i][j][k] * reps[k][r][c] for k in range(t.rank))
                        for c in range(t.rank)
                    )
                    for r in range(t.rank)
                )
                assert lhs == rhs


def test_degree_map_is_character():
    # sum_k lam[i][j][k] delta_k = delta_i delta_j, checked in the field
    for t in (drt(2), conference(1), fusion("fib"), fusion("e6"), fusion("psu5l2")):
        _, delta = degree_character_values(t)
        for i in range(t.rank):
            for j in range(t.rank):
                lhs = sum((delta[k] * t.lam[i][j][k] for k in range(t.rank)), start=delta[0] * 0)
                assert lhs == delta[i] * delta[j]


def test_perron_root_matches_pairing_for_standard_bases():
    for t in (drt(1), drt(3), conference(1), conference(3)):
        deltas = degree_map(t)
        for i in range(t.rank):
            assert deltas[i] == t.lam[i][t.involution[i]][0]


def test_rescale_ising_to_standard():
    s = rescale(fusion("ising"), "standard")
    assert s.basis_kind is BasisKind.STANDARD
    assert s.lam[2][2] == (2, 2, 0)  # d_s^2 = 2 + 2b
    assert s.lam[1][2] == (0, 0, 1)
    assert validate(s).ok


def test_rescale_reps3_to_standard():
    s = rescale(fusion("reps3"), "standard")
    assert s.lam[2][2] == (4, 4, 2)  # (2d)^2 = 4 + 4b + 2(2d)


def test_rescale_e6_fails():
    with pytest.raises(NonIntegralRescale):
        rescale(fusion("e6"), "standard")


def test_rescale_roundtrip():
    for name in ("ising", "reps3", "c2", "c3"):
        t = fusion(name)
        there = rescale(t, "standard")
        back = rescale(there, "transitional")
        assert back.lam == t.lam


def test_rescale_standard_family_is_fixed_point():
    t = drt(1)
    assert rescale(t, "standard").lam == t.lam


def reference_product(lam, u, v):
    "The triple sum sum_ijk u_i v_j lambda[i][j][k] b_k, entry by entry."
    r = len(lam)
    return tuple(sum(u[i] * v[j] * lam[i][j][k] for i in range(r) for j in range(r)) for k in range(r))


def reference_ring_axioms(lam):
    """The ring axioms a tensor breaks, found by the entrywise loops:
    lambda[0][j] and lambda[j][0] against the unit vectors, lambda[i][j]
    against lambda[j][i], and every coordinate of (b_i b_j) b_k against
    b_i (b_j b_k)."""
    r = len(lam)
    found = set()
    for j, k in product(range(r), repeat=2):
        if lam[0][j][k] != (j == k) or lam[j][0][k] != (j == k):
            found.add("identity")
    for i, j in product(range(r), repeat=2):
        if lam[i][j] != lam[j][i]:
            found.add("commutativity")
    for i, j, k, l in product(range(r), repeat=4):
        lhs = sum(lam[i][j][m] * lam[m][k][l] for m in range(r))
        rhs = sum(lam[j][k][m] * lam[i][m][l] for m in range(r))
        if lhs != rhs:
            found.add("associativity")
    return found


@st.composite
def _small_tensors(draw):
    """A random r x r x r tensor with r <= 3 and entries 0..2, made
    unital, commutative or both as often as not, so that every subset of
    the ring axioms can fail."""
    r = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=0, max_value=2)
    lam = draw(st.lists(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r), min_size=r, max_size=r))
    if draw(st.booleans()):
        for i in range(r):
            for j in range(i):
                lam[i][j] = list(lam[j][i])
    if draw(st.booleans()):
        for j in range(r):
            lam[0][j] = lam[j][0] = [int(j == k) for k in range(r)]
    return lam


def _vectors(r, entries):
    return st.lists(entries, min_size=r, max_size=r)


RING_AXIOMS = {"identity", "commutativity", "associativity"}


@settings(max_examples=200, deadline=None)
@given(_small_tensors(), st.data())
@example(fusion("e6").lam, None)
@example(drt(1).lam, None)
@example([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 1, 1]]], None)
# upper triangular 2 x 2 matrices on 1, E12, E22: associative, not commutative
@example([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 1]]], None)
def test_table_primitives_match_the_reference_loops(lam, data):
    r = len(lam)
    if data is not None:
        rationals = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4)
        u, v = data.draw(_vectors(r, rationals)), data.draw(_vectors(r, rationals))
        assert multiply(lam, u, v) == reference_product(lam, u, v)
        rows = action_matrix(lam, u)
        for l in range(r):
            assert rows[l] == multiply(lam, u, [int(i == l) for i in range(r)])
        x, y = data.draw(_vectors(r, st.integers(-9, 9))), data.draw(_vectors(r, st.integers(-9, 9)))
        for p in (2, 3, 7):
            assert modp.multiply(lam, x, y, p) == tuple(c % p for c in reference_product(lam, x, y))
    broken = reference_ring_axioms(lam)
    assert {axiom for axiom, _ in ring_violations(lam)} == broken
    assert {axiom for axiom, _ in validate(TableAlgebra(r, lam, tuple(range(r)))).violations} & RING_AXIOMS == broken
    if "commutativity" in broken:
        with pytest.raises(NonCommutative):
            check_ring(lam)
    elif broken:
        with pytest.raises(InputError):
            check_ring(lam)
    else:
        check_ring(lam)


def test_check_ring_refuses_ragged_and_non_integer_tensors():
    with pytest.raises(InputError):
        check_ring([[[1, 0], [0, 1]], [[0, 1]]])
    with pytest.raises(InputError):
        check_ring([])
    with pytest.raises(InputError):
        check_ring([[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]])
    with pytest.raises(InputError):
        check_ring([[[1, 0], [0, 1]], [[0, 1], [Fraction(1), 0]]])
