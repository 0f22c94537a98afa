import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablezeta import algebra
from tablezeta.algebra import TableAlgebra
from tablezeta.cli import main
from tablezeta.decomposition import maximal_order
from tablezeta.dirichlet import (
    complete_local_polynomial,
    expand,
    infer_local_polynomial,
    maximal_local_factor,
    residue_degrees_mod_p,
)
from tablezeta.errors import FunctionalEquationFailed
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.ideals import count_ideals, count_ideals_at_prime
from tablezeta.modp import is_gorenstein, maximal_ideals, socle_dimension
from tablezeta.pipeline import infer_exceptional_factors, oracle_depth, verify_order, zeta_series
from tablezeta.polys import pdeg

from references import group_table, quotient_ring_table, tensor_table

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
    # Gorenstein with l = 1 and 7^2 <= 100 < 7^3, so the count goes to 7^2,
    # not to D_7 = 5, and is read off the full count
    f = res.factors[7]
    assert (f.ell, f.degree_bound, f.gorenstein, f.depth) == (1, 5, True, 2)


def test_verify_counts_past_the_degree_bound_to_reach_the_index_bound():
    res = verify_order(fusion("c2"), 64)
    assert res.passed and res.deltas == {2: (1, -1, 2)}
    f = res.factors[2]
    assert (f.ell, f.degree_bound, f.gorenstein, f.depth) == (1, 3, True, 6)


@pytest.mark.parametrize(
    "label, p, bound", [("c2", 2, 3), ("ising", 2, 5), ("drt(1)", 7, 5), ("drt(6)", 3, 14), ("Z[C4]", 2, 13)]
)
def test_degree_bound_values(label, p, bound):
    # D_p = 2 n v - v_p[Lambda_0 : ZB]; drt(6): n = 3, v = 3, index 3^4
    assert maximal_order(ORDERS[label]).degree_bound(p) == bound


@pytest.mark.parametrize("label", ORDERS)
def test_counts_past_the_degree_bound_match_delta(label):
    # reference for the bound and the functional equation: counted two
    # levels past D_p, the counts still equal the expansion of delta_p (found
    # at depth l and completed by the equation) times the maximal-order
    # factor, so the quotient has degree 2 l <= D_p and vanishes above it
    t = ORDERS[label]
    order = maximal_order(t)
    for p, f in infer_exceptional_factors(t, order, 1).items():
        assert f.gorenstein and f.depth == f.ell and f.degree_bound == order.degree_bound(p)
        assert pdeg(f.delta) == 2 * f.ell <= f.degree_bound
        assert count_ideals_at_prime(t.lam, p, f.degree_bound + 2) == expand(f.full, f.degree_bound + 2), p


@pytest.mark.parametrize("label, bound", [*((label, 64) for label in ORDERS), ("drt(6)", 50)])
def test_verify_reads_the_bad_primes_off_its_one_count(label, bound):
    # the oracle is the full count, and each delta_p equals the one found from
    # the prime's own tower to the same depth; drt(6) at 50 counts to 3^4 > 50
    t = ORDERS[label]
    res = verify_order(t, bound)
    assert res.passed
    assert res.oracle.counts == count_ideals(t.lam, bound).counts
    order = maximal_order(t)
    for p, f in res.factors.items():
        counts = count_ideals_at_prime(t.lam, p, f.depth)
        reached = [k for k in range(f.depth + 1) if p**k <= bound]
        assert [res.oracle.a(p**k) for k in reached] == counts[: len(reached)]
        base = maximal_local_factor(order.rings, p)
        assert complete_local_polynomial(counts, base, f.ell) == f.delta, p


def z_plus_p_z3(p):
    """The order Z + p Z^3 on the basis 1, b_1 = p (e_2 + 2 e_3), b_2 = p e_3,
    where b_1 generates Q^3: b_1^2 = p b_1 + 2p b_2, b_1 b_2 = 2p b_2,
    b_2^2 = p b_2."""
    return TableAlgebra(
        3,
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, p, 2 * p], [0, 0, 2 * p]], [[0, 0, 1], [0, 0, 2 * p], [0, 0, p]]],
        (0, 1, 2),
    )


@pytest.mark.parametrize("p, delta", [(2, (1, -2, 7)), (3, (1, -2, 13, 3))])
def test_non_gorenstein_order_keeps_its_degree_bound(p, delta):
    # Z + p Z^3: Lambda_0 = Z^3 with index p^2 (l = 2) and conductor p
    # (v = 1), so D_p = 2 * 3 * 1 - 2 = 4.  Lambda / p Lambda is
    # F_p[x, y] / (x, y)^2 for x = b_1 - 2 b_2, y = b_2: its one maximal
    # ideal, of residue degree 1, is its own annihilator, of dimension 2.
    # So Lambda_p is not Gorenstein, the count goes to D_p, and delta_p
    # breaks the functional equation
    t = z_plus_p_z3(p)
    (m,) = maximal_ideals(t.lam, p)
    assert (m.f, socle_dimension(t.lam, m, p)) == (1, 2)
    assert not is_gorenstein(t.lam, (m,), p)
    assert oracle_depth(p, 2, 4, False, 1) == 4
    base = maximal_local_factor(((0, 1),) * 3, p)
    counts = count_ideals_at_prime(t.lam, p, 4)
    assert infer_local_polynomial(counts, base, 4) == delta
    with pytest.raises(FunctionalEquationFailed, match=f"delta_{p} has .*functional equation from degree 2"):
        complete_local_polynomial(counts, base, 2)
    # verify takes the same route: at p = 2 it reads a_1 .. a_64 off its one
    # count, at p = 3 it counts to 3^4 > 64 on its own
    res = verify_order(t, 64)
    f = res.factors[p]
    assert res.passed and res.deltas == {p: delta}
    assert (f.ell, f.degree_bound, f.gorenstein, f.depth) == (2, 4, False, {2: 6, 3: 4}[p])


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(-8, 8), st.integers(1, 6))
def test_completed_delta_equals_the_count_to_the_degree_bound_on_quadratic_orders(b, c, k):
    # Z[k theta] for a root theta of x^2 + b x + c: its minimal polynomial is
    # x^2 + k b x + k^2 c, and the factor k puts bad primes in.  Monogenic
    # orders are Gorenstein at every prime, so the delta_p completed from
    # depth l equals the one counted to D_p
    if b * b == 4 * c:
        return  # not reduced: Q[x]/(f) is not a product of fields
    t = TableAlgebra(2, quotient_ring_table((k * k * c, k * b, 1)), (0, 1))
    order = maximal_order(t)
    for p, f in infer_exceptional_factors(t, order, 1).items():
        assert f.gorenstein and f.depth == f.ell
        counts = count_ideals_at_prime(t.lam, p, f.degree_bound)
        assert infer_local_polynomial(counts, maximal_local_factor(order.rings, p), f.degree_bound) == f.delta


@pytest.mark.parametrize(
    "lam, deltas",
    [
        (group_table(4, lambda i, j: i ^ j), {2: (1, -3, 9, -3, 2, -6, 36, -24, 16)}),
        (tensor_table(fusion("fib").lam, fusion("fib").lam), {5: (1, -1, 5)}),
        (tensor_table(fusion("ising").lam, fusion("c2").lam), {2: (1, -3, 9, -7, 10, -2, 20, -28, 72, -48, 32)}),
    ],
    ids=["Z[C2xC2]", "fib-x-fib", "ising-x-c2"],
)
def test_verify_where_no_basis_element_generates(lam, deltas):
    # every basis element has a repeated eigenvalue, so the generator is
    # b1 + 2 b2 + ... + (r-1) b_(r-1), the descent's splitting element
    r = len(lam)
    t = TableAlgebra(r, lam, tuple(range(r)))  # every basis element is self-dual
    assert maximal_order(t).generator == tuple(range(r))
    res = verify_order(t, 64)
    assert res.passed and res.deltas == deltas


def test_verify_reports_deltas_for_conservative_primes():
    # psu5l2 is maximal: no bad primes at all, so no deltas to infer
    res = verify_order(fusion("psu5l2"), 30)
    assert res.passed and res.deltas == {}


def test_zeta_series_matches_verify_assembly():
    t = fusion("reps3")
    series = zeta_series(t, 48)
    res = verify_order(t, 48)
    assert series.counts == res.assembled.counts == res.oracle.counts


def test_unramified_degrees_sum_to_field_degree():
    rings = maximal_order(fusion("psu5l2")).rings
    ring = rings[0]
    for p in (2, 3, 5, 11, 13):
        # the degrees of the distinct factors sum to 3 only when each has multiplicity 1
        assert sum(residue_degrees_mod_p(ring, p)) == 3
    # ramified at 7: one prime of residue degree 1
    assert residue_degrees_mod_p(ring, 7) == [1]


def count_algebra_calls(monkeypatch, *names):
    """{name: calls} for functions of ``tablezeta.algebra``, which the
    package calls through that module."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, fn=getattr(algebra, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(algebra, name, counting)
    return calls


@pytest.mark.parametrize(
    "argv, violations, charpolys",
    [
        (["verify", "--family", "fusion", "--name", "reps3"], 2, 2),
        (["zeta", "--family", "drt", "--u", "1", "--max-index", "6561"], 2, 1),
        (["verify", "Z[C4]"], 1, 1),
    ],
)
def test_each_command_checks_the_ring_once(monkeypatch, tmp_path, capsys, argv, violations, charpolys):
    # maximal_order checks the ring and finds (theta, chi, D) once, and the
    # count and the towers past N take both from it; the other check of a
    # family is its validation when it is built.  reps3's b_1 has a
    # repeated eigenvalue, so its generator is b_2, after two
    # characteristic polynomials
    if argv[-1] == "Z[C4]":
        path = tmp_path / "c4.json"
        doc = {"rank": 4, "names": [f"b{i}" for i in range(4)], "involution": [0, 3, 2, 1]}
        path.write_text(json.dumps({**doc, "lambda": group_table(4, lambda i, j: (i + j) % 4)}))
        argv = [*argv[:-1], str(path)]
    calls = count_algebra_calls(monkeypatch, "ring_violations", "charpoly")
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert calls == {"ring_violations": violations, "charpoly": charpolys}
