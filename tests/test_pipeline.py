import pytest

from tablezeta.algebra import TableAlgebra
from tablezeta.decomposition import maximal_order
from tablezeta.dirichlet import expand, residue_degrees_mod_p
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.ideals import count_ideals_at_prime
from tablezeta.pipeline import infer_exceptional_factors, verify_order, zeta_series

Z_C4 = TableAlgebra(4, [[[int((i + j) % 4 == k) for k in range(4)] for j in range(4)] for i in range(4)], (0, 3, 2, 1))
ORDERS = {
    "drt(1)": drt(1),
    "drt(6)": drt(6),
    "conference(1)": conference(1),
    "conference(3)": conference(3),
    **{name: fusion(name) for name in FUSION_NAMES},
    "Z[C4]": Z_C4,
}


def test_verify_drt1_to_100():
    res = verify_order(drt(1), 100)
    assert res.passed
    assert res.deltas == {7: (1, -1, 7)}
    # 7^2 <= 100 < 7^3, so the count goes to D_7 = 5, not past it
    assert (res.factors[7].degree_bound, res.factors[7].depth) == (5, 5)


def test_verify_counts_past_the_degree_bound_to_reach_the_index_bound():
    res = verify_order(fusion("c2"), 64)
    assert res.passed and res.deltas == {2: (1, -1, 2)}
    assert (res.factors[2].degree_bound, res.factors[2].depth) == (3, 6)


@pytest.mark.parametrize(
    "label, p, bound", [("c2", 2, 3), ("ising", 2, 5), ("drt(1)", 7, 5), ("drt(6)", 3, 14), ("Z[C4]", 2, 13)]
)
def test_degree_bound_values(label, p, bound):
    # D_p = 2 n v - v_p[Lambda_0 : ZB]; drt(6): n = 3, v = 3, index 3^4
    assert maximal_order(ORDERS[label]).degree_bound(p) == bound


@pytest.mark.parametrize("label", ORDERS)
def test_counts_past_the_degree_bound_match_delta(label):
    # reference for the bound: counted two levels past D_p, the counts still
    # equal the expansion of delta_p (found at depth D_p) times the
    # maximal-order factor, so the quotient vanishes above D_p
    t = ORDERS[label]
    order = maximal_order(t)
    for p, f in infer_exceptional_factors(t, order, 1).items():
        assert f.depth == f.degree_bound == order.degree_bound(p)
        assert count_ideals_at_prime(t.lam, p, f.depth + 2) == expand(f.full, f.depth + 2), p


def test_verify_reports_deltas_for_conservative_primes():
    # psu5l2 is maximal: no bad primes at all, so no deltas to infer
    res = verify_order(fusion("psu5l2"), 30)
    assert res.passed and res.deltas == {}


def test_zeta_series_matches_verify_assembly():
    t = fusion("reps3")
    series = zeta_series(t, 48)
    res = verify_order(t, 48)
    assert series.coefficients == res.assembled.coefficients == res.oracle.coefficients


def test_unramified_degrees_sum_to_field_degree():
    rings = maximal_order(fusion("psu5l2")).rings
    ring = rings[0]
    for p in (2, 3, 5, 11, 13):
        # the degrees of the distinct factors sum to 3 only when each has multiplicity 1
        assert sum(residue_degrees_mod_p(ring, p)) == 3
    # ramified at 7: one prime of residue degree 1
    assert residue_degrees_mod_p(ring, 7) == [1]
