from itertools import product
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tablezeta import LatticeHNF, count_ideals, count_ideals_at_prime
from tablezeta.algebra import TableAlgebra, action_matrix
from tablezeta.errors import InputError
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.dirichlet import LocalRationalFunction, expand, maximal_local_factor, theorem_local_factor
from tablezeta import ideals, modp, pipeline
from tablezeta.ideals import (
    IdealCountSeries,
    _degree_one_children,
    _moebius_terms,
    _splitting_element,
    _sublattice,
)
from tablezeta.exact import factorize, hnf, primes_up_to
from tablezeta.modp import is_gorenstein, kernel, maximal_ideals, root_count, rref
from tablezeta.decomposition import maximal_order
from tablezeta.pipeline import verify_order
from tablezeta.polys import pmul

from references import (
    divisor_tuples,
    enumerate_sublattices,
    good_prime_tables,
    group_table,
    is_ideal,
    quotient_ring_table,
    stream_count,
    stream_series,
    sylvester_discriminant,
    tensor_table,
    whole_ring_descent,
)


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
    # deep enough to reach the ideals inside p Lambda
    (fusion("ising").lam, 2, 8),
    (fusion("c3").lam, 3, 5),
    (conference(1).lam, 5, 3),
    # depth 1 at a p dividing D, where _degree_one_count reads maximal_ideals
    (fusion("reps3").lam, 2, 1),
    (fusion("reps3").lam, 3, 1),
    (fusion("psu5l2").lam, 7, 1),
    (fusion("e6").lam, 3, 1),
    (drt(1).lam, 2, 1),
    (conference(3).lam, 13, 1),
]


def test_prime_power_descent_matches_stream():
    for lam, p, kmax in PRIME_POWER_CASES:
        slow = [stream_count(lam, p**k) for k in range(kmax + 1)]
        assert count_ideals_at_prime(lam, p, kmax) == slow


def test_descent_matches_closed_forms_on_deep_towers():
    # towers too deep for the stream, against local factors that come from
    # no count: the maximal order's Dedekind factors times 1 - t + p t^2
    # (Solomon's factor for c3 = Z[C3]), and the valuation-3 closed form
    for t, p, kmax in [(fusion("ising"), 2, 13), (fusion("c3"), 3, 9), (conference(1), 5, 6), (drt(1), 7, 5)]:
        local = maximal_local_factor(maximal_order(t).rings, p) * (1, -1, p)
        assert count_ideals_at_prime(t.lam, p, kmax) == expand(local, kmax), (p, kmax)
    assert count_ideals_at_prime(drt(6).lam, 3, 9) == expand(theorem_local_factor("v3", 3), 9)


def test_towers_where_the_ideals_inside_p_lambda_enter_twice():
    # the descent counts the ideals outside p Lambda and adds a_{p^(k-r)} for
    # the rest; at k >= 2r that term itself holds such a term.  Each tower
    # against a local factor that comes from no count
    ising = fusion("ising")
    c4 = group_table(4, lambda i, j: (i + j) % 4)
    delta_c4 = (1, -2, 3, 0, 6, -8, 8)  # Solomon's delta_2 of Z[C4], as in acceptance 10
    cases = [
        (drt(6).lam, 3, 12, theorem_local_factor("v3", 3)),
        (ising.lam, 2, 16, maximal_local_factor(maximal_order(ising).rings, 2) * (1, -1, 2)),
        (c4, 2, 10, LocalRationalFunction(2, delta_c4, (1, -3, 3, -1))),
    ]
    for lam, p, kmax, local in cases:
        assert count_ideals_at_prime(lam, p, kmax) == expand(local, kmax), (p, kmax)
    # Z[C2 x C2] at 3 is Z_3^4 locally: four maximal ideals, and C(k + 3, 3)
    # ideals of index 3^k
    c2c2 = group_table(4, lambda i, j: i ^ j)
    assert [m.f for m in maximal_ideals(c2c2, 3)] == [1, 1, 1, 1]
    assert count_ideals_at_prime(c2c2, 3, 8) == [comb(k + 3, 3) for k in range(9)]


def test_descent_past_p_to_the_rank_matches_stream():
    # past index p^r, with two maximal ideals above 2 (reps3) and in rank 4
    for lam, p, kmax in [(fusion("reps3").lam, 2, 6), (group_table(4, lambda i, j: i ^ j), 2, 5)]:
        assert len(lam) < kmax
        assert count_ideals_at_prime(lam, p, kmax) == [stream_count(lam, p**k) for k in range(kmax + 1)]


def test_descent_matches_stream_on_group_rings():
    # group rings of rank 4 and 6 against the plain stream
    cases = [
        (group_table(4, lambda i, j: (i + j) % 4), 24),  # Z[C4]
        (group_table(4, lambda i, j: i ^ j), 24),  # Z[C2 x C2]
        (group_table(6, lambda i, j: (i + j) % 6), 10),  # Z[C6]
    ]
    for lam, bound in cases:
        assert count_ideals(lam, bound).counts == stream_series(lam, bound)


def convolve(a, b):
    "The product of two power series [a_0, a_1, ...], truncated at the shorter."
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


C6 = group_table(6, lambda i, j: (i + j) % 6)
FIB_C2 = tensor_table(fusion("fib").lam, group_table(2, lambda i, j: i ^ j))


def test_c6_tower_at_2_is_the_convolution_of_its_blocks():
    # Z_2[C6] = Z_2[C2] x Z_4[C2], Z_4 the unramified quadratic ring, which
    # is fib (x) c2 at 2: each factor has one maximal ideal above 2, so its
    # tower takes no convolution, and Z[C6]'s is the product of theirs
    c2 = group_table(2, lambda i, j: i ^ j)
    assert [len(maximal_ideals(lam, 2)) for lam in (C6, c2, FIB_C2)] == [2, 1, 1]
    blocks = convolve(count_ideals_at_prime(c2, 2, 10), count_ideals_at_prime(FIB_C2, 2, 10))
    assert count_ideals_at_prime(C6, 2, 10) == blocks


def test_c6_deltas_are_products_of_the_blocks_deltas():
    # delta_2 of Z[C6] is delta_2(Z[C2]) delta_2(fib (x) c2), and delta_3 is
    # delta_3(Z[C3])^2: Z_3[C6] = Z_3[C3] x Z_3[C3]
    c6 = verify_order(TableAlgebra(6, C6, tuple(-i % 6 for i in range(6))), 16)
    fib_c2 = verify_order(TableAlgebra(4, FIB_C2, (0, 1, 2, 3)), 16)
    c2, c3 = (verify_order(fusion(name), 16) for name in ("c2", "c3"))
    assert all(res.passed for res in (c6, fib_c2, c2, c3))
    assert c6.deltas[2] == pmul(c2.deltas[2], fib_c2.deltas[2]) == (1, -1, 1, 1, 2, -4, 8)
    assert c6.deltas[3] == pmul(c3.deltas[3], c3.deltas[3]) == (1, -2, 7, -6, 9)


@pytest.mark.parametrize(
    "label, lam, p, kmax",
    [
        ("Z[C6]", C6, 2, 8),
        ("Z[C6]", C6, 3, 6),
        ("Z[C10]", group_table(10, lambda i, j: (i + j) % 10), 2, 5),
        ("Z[C10]", group_table(10, lambda i, j: (i + j) % 10), 5, 4),
        ("reps3", fusion("reps3").lam, 2, 10),
        ("reps3", fusion("reps3").lam, 3, 7),
    ],
)
def test_block_towers_convolve_to_the_whole_ring_descent(label, lam, p, kmax):
    assert len(maximal_ideals(lam, p)) >= 2
    assert count_ideals_at_prime(lam, p, kmax) == whole_ring_descent(lam, p, kmax)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=2),
)
@example([-1], [1, 1])  # Z[C3]: x^3 - 1 = (x - 1)(x^2 + x + 1), two blocks at 2
@example([1, 0], [-2, 0])  # (x^2 + 1)(x^2 - 2): two blocks at 2, three at 5, one of residue degree 2
def test_block_towers_convolve_on_random_products(low1, low2):
    # Z[x]/(f1 f2) at each p <= 5 where Lambda/pLambda has two or more
    # maximal ideals: the convolved tower against the whole-ring descent
    lam = quotient_ring_table(pmul((*low1, 1), (*low2, 1)))
    split = [p for p in (2, 3, 5) if len(maximal_ideals(lam, p)) >= 2]
    assume(split)
    for p in split:
        kmax = {2: 6, 3: 4, 5: 3}[p]
        assert count_ideals_at_prime(lam, p, kmax) == whole_ring_descent(lam, p, kmax), p


def assert_root_count_matches(lam):
    """At every p <= 200 prime to D, the number of roots of chi mod p is
    the number of residue-degree-1 ideals of maximal_ideals: the count the
    descent takes at a p with p^2 > bound."""
    _, chi, disc = _splitting_element(lam)
    for p in primes_up_to(200):
        if disc % p:
            assert root_count(chi, p) == sum(1 for m in maximal_ideals(lam, p) if m.f == 1), p


def test_root_count_matches_maximal_ideals():
    tables = [t.lam for t in (drt(1), drt(6), conference(1), conference(3))]
    tables += [fusion(name).lam for name in FUSION_NAMES]
    tables += [
        group_table(4, lambda i, j: (i + j) % 4),  # Z[C4]
        group_table(4, lambda i, j: i ^ j),  # Z[C2 x C2]
        group_table(6, lambda i, j: (i + j) % 6),  # Z[C6]
    ]
    for lam in tables:
        assert_root_count_matches(lam)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=4))
@example([1, -1, 0])  # x^3 - x + 1, disc -23
@example([2, 0, 0, 0])  # x^4 + 2, Eisenstein at 2
def test_root_count_on_random_monic_orders(low):
    # Z[x]/(f) for a monic cubic or quartic f with disc f != 0: theta is
    # b_1 = x, chi is f and D is disc f
    f = (*low, 1)
    disc = sylvester_discriminant(f)
    if disc:
        lam = quotient_ring_table(f)
        assert _splitting_element(lam) == (tuple(int(j == 1) for j in range(len(low))), f, disc)
        assert_root_count_matches(lam)


def test_root_count_needs_p_prime_to_d():
    # Z[C2 x C2]: every b_i has a repeated eigenvalue, so theta = b1 + 2 b2 +
    # 3 b3, with eigenvalues 6, -4, -2, 0.  Mod 5 two of them meet, and
    # chi has three roots, while Lambda/5 Lambda = F_5^4 has four maximal
    # ideals: 5 divides D, so the descent asks maximal_ideals at 5
    lam = group_table(4, lambda i, j: i ^ j)
    theta, chi, disc = _splitting_element(lam)
    assert theta == (0, 1, 2, 3) and disc % 5 == 0
    assert root_count(chi, 5) == 3
    assert [m.f for m in maximal_ideals(lam, 5)] == [1, 1, 1, 1]
    assert count_ideals(lam, 24).a(5) == 4


GOOD_PRIME_TABLES = good_prime_tables()


@pytest.mark.parametrize("label", GOOD_PRIME_TABLES)
def test_maximal_ideals_at_good_primes_come_from_the_roots_of_chi(label):
    # at every p <= 200 prime to D the maximal ideals that the descent
    # takes, (g(theta)) for the factors g of chi mod p, are those of
    # maximal_ideals, in (f, basis) and order, and each generator
    # generates its ideal
    lam = GOOD_PRIME_TABLES[label]
    split = _splitting_element(lam)
    for p in primes_up_to(200):
        if split[2] % p:
            found = ideals._maximal(lam, p, split)
            assert [(m.f, m.basis) for m in found] == [(m.f, m.basis) for m in maximal_ideals(lam, p)], p
            for m in found:
                assert rref([row for g in m.generators for row in action_matrix(lam, g)], p) == m.basis, p


def record_maximal_ideals(monkeypatch):
    "The primes at which the package calls modp.maximal_ideals, in order."
    called = []

    def recording(lam, p):
        called.append(p)
        return maximal_ideals(lam, p)

    for module in (ideals, pipeline):
        monkeypatch.setattr(module, "maximal_ideals", recording)
    return called


def test_a_cofactor_of_degree_four_takes_maximal_ideals(monkeypatch):
    # Z[C5], chi = x^5 - 1, D = 5^5: at p = 2, 3, 7, 13, 17 and 19 the
    # cofactor of x - 1 has degree 4 (irreducible, or at 19 two quadratics),
    # and the descent takes its maximal ideals from the factors of chi mod p,
    # as at 11, where chi splits into five roots; only 5 divides D, so only
    # 5 asks maximal_ideals, and so do the towers of count_ideals_at_prime.
    # The counts equal those with the route taken nowhere
    lam = group_table(5, lambda i, j: (i + j) % 5)
    called = record_maximal_ideals(monkeypatch)
    series = count_ideals(lam, 400)
    assert called == [5]
    towers = [count_ideals_at_prime(lam, 2, 8), count_ideals_at_prime(lam, 19, 2)]
    assert called == [5]
    assert towers == [[series.a(2**k) for k in range(9)], [series.a(19**k) for k in range(3)]]
    maximal = ideals._maximal
    monkeypatch.setattr(ideals, "_maximal", lambda table, p, split: maximal(table, p, None))
    assert series == count_ideals(lam, 400)
    assert 11 in called


@pytest.mark.parametrize("t, bound", [(drt(6), 50), (drt(60), 50), (fusion("reps3"), 64)])
def test_verify_walks_each_tower_once(monkeypatch, t, bound):
    # one verify walks each prime's tower once and finds each prime's
    # maximal ideals once: the full count takes a bad prime's tower from
    # the count its delta_p was fitted from, also where that tower goes
    # past the bound (drt(6) and drt(60) at 3, to 3^4 and 3^7 > 50)
    walked = []
    descend = ideals._descend

    def recording(table, p, kmax, *args):
        walked.append((p, kmax))
        return descend(table, p, kmax, *args)

    monkeypatch.setattr(ideals, "_descend", recording)
    called = record_maximal_ideals(monkeypatch)
    res = verify_order(t, bound)
    assert res.passed
    primes = [p for p, _ in walked]
    assert len(primes) == len(set(primes)), walked
    assert len(called) == len(set(called)), called
    assert {(p, f.depth) for p, f in res.factors.items()} <= set(walked)


def test_a_tower_of_depth_zero_finds_no_maximal_ideals(monkeypatch):
    called = record_maximal_ideals(monkeypatch)
    assert count_ideals_at_prime(drt(6).lam, 3, 0) == [1]
    assert called == []


@pytest.mark.parametrize("name, bad", [("c3", 3), ("fib", 5)])
def test_verify_asks_maximal_ideals_only_where_p_divides_d(monkeypatch, name, bad):
    # of the primes p <= 7 whose towers reach p^2 at N = 64, only the one
    # dividing D takes maximal_ideals, once for the count and its oracle
    called = record_maximal_ideals(monkeypatch)
    assert verify_order(fusion(name), 64).passed
    assert called == [bad]


def test_residue_degree_two_towers_match_stream():
    # composite coefficients from towers with a maximal ideal of residue
    # degree 2: in Z[i] index 36 = 4 * 9 at the inert 3, in Z[x]/(x^3 - 2)
    # index 50 = 2 * 25 at the ideal above 5 of residue field F_25
    for f, bound, leaf in [((1, 0, 1), 60, 36), ((-2, 0, 0, 1), 50, 50)]:
        lam = quotient_ring_table(f)
        slow = stream_series(lam, bound)
        assert slow[leaf - 1] > 0
        assert count_ideals(lam, bound).counts == slow


def test_no_sublattice_built_at_primes_whose_square_exceeds_the_bound(monkeypatch):
    # e6 to 1000: a p > 31 (p^2 > 1000) has a tower of depth 1, a root count
    # (a child at a maximal ideal of residue degree 1 comes from
    # _degree_one_children, one of higher degree from _sublattice)
    built = []
    for name in ("_sublattice", "_degree_one_children"):
        build = getattr(ideals, name)

        def counting(rows, sub, p, build=build):
            built.append(p)
            return build(rows, sub, p)

        monkeypatch.setattr(ideals, name, counting)
    series = count_ideals(fusion("e6").lam, 1000)
    assert built and max(built) <= 31
    assert series.a(997) == root_count(_splitting_element(fusion("e6").lam)[1], 997)


def record_children(monkeypatch):
    """Wrap the descent's two child builders, _degree_one_children and
    _sublattice; the list returned gets every child HNF they build."""
    built = []
    degree_one, sublattice = ideals._degree_one_children, ideals._sublattice

    def recording_degree_one(rows, w, p):
        for hnf in degree_one(rows, w, p):
            built.append(hnf)
            yield hnf

    def recording_sublattice(rows, sub, p):
        built.append(sublattice(rows, sub, p))
        return built[-1]

    monkeypatch.setattr(ideals, "_degree_one_children", recording_degree_one)
    monkeypatch.setattr(ideals, "_sublattice", recording_sublattice)
    return built


def test_the_last_level_is_counted_not_built(monkeypatch):
    # a_{p^kmax} is the Moebius sum over the levels below it, so no child of
    # index p^kmax is built; the level below it still is
    built = record_children(monkeypatch)
    c2c2 = group_table(4, lambda i, j: i ^ j)
    for lam, p, kmax in [(drt(6).lam, 3, 9), (fusion("ising").lam, 2, 8), (c2c2, 2, 5)]:
        built.clear()
        tower = count_ideals_at_prime(lam, p, kmax)
        assert tower[kmax] > 0
        assert max(prod(row[i] for i, row in enumerate(hnf)) for hnf in built) == p ** (kmax - 1), (p, kmax)


def test_work_on_the_drt6_tower_to_3_9(monkeypatch):
    # counters that do not depend on the machine: 1749 children were built
    # while the descent built the last level too, and the products of m with
    # the rows of I are taken as often as before
    built = record_children(monkeypatch)
    calls = []
    products = ideals._products

    def counting_products(rows, act):
        calls.append(1)
        return products(rows, act)

    monkeypatch.setattr(ideals, "_products", counting_products)
    assert count_ideals_at_prime(drt(6).lam, 3, 9) == expand(theorem_local_factor("v3", 3), 9)
    assert len(built) <= 1074
    assert len(calls) == 471


def record_products(monkeypatch):
    "Wrap _products; the list returned gets one entry per call."
    calls = []
    products = ideals._products

    def counting_products(rows, act):
        calls.append(1)
        return products(rows, act)

    monkeypatch.setattr(ideals, "_products", counting_products)
    return calls


@pytest.mark.parametrize(
    "lam, p, kmax, children, products",
    [
        # the whole-ring descent built 331 children and took 207 products
        (fusion("reps3").lam, 2, 10, 146, 92),
        # the whole-ring descent built 487 children and took 581 products
        (C6, 2, 10, 177, 141),
    ],
)
def test_work_on_block_towers(monkeypatch, lam, p, kmax, children, products):
    # counters that do not depend on the machine: one walk per maximal
    # ideal builds no ideal that mixes two of them
    built = record_children(monkeypatch)
    calls = record_products(monkeypatch)
    assert count_ideals_at_prime(lam, p, kmax)[kmax] > 0
    assert len(built) <= children
    assert len(calls) <= products


def test_each_hyperplane_is_found_once(monkeypatch):
    # a counter that does not depend on the machine: the F_4 block of Z[C6]
    # at 2 finds its 30 F_4-hyperplanes from 30 F_2-functionals, not from
    # all 90 that vanish on one of them, (4 - 1)/(2 - 1) = 3 each
    calls = []

    def counting(rows, p):
        calls.append(p)
        return kernel(rows, p)

    monkeypatch.setattr(ideals, "kernel", counting)
    assert count_ideals_at_prime(C6, 2, 10) == [1, 1, 4, 6, 15, 19, 42, 56, 101, 133, 208]
    assert len(calls) == 30


def test_residue_degrees_search_no_generators(monkeypatch):
    # a tower of depth 1 at a p dividing D reads only the residue degrees of
    # the maximal ideals; a walk and the socle test search for generators,
    # each ideal once, also where the walk is handed the socle test's list
    c2c2 = [[[int(i ^ j == k) for k in range(4)] for j in range(4)] for i in range(4)]
    searched = []
    search = modp._ideal_generators

    def recording(lam, basis, p):
        searched.append(p)
        return search(lam, basis, p)

    monkeypatch.setattr(modp, "_ideal_generators", recording)
    found = {}

    def keeping(lam, p):
        found[p] = maximal_ideals(lam, p)
        return found[p]

    monkeypatch.setattr(ideals, "maximal_ideals", keeping)
    series = count_ideals(c2c2, 24)
    assert set(searched) <= {2, 3}
    assert all(searched.count(p) == len(found[p]) for p in set(searched))  # each walked ideal searches once
    assert 5 in found and 7 not in searched
    ms = found[5]
    assert count_ideals_at_prime(c2c2, 5, 1, _maximal_ideals=ms) == [1, series.a(5)]
    assert 5 not in searched
    assert is_gorenstein(c2c2, ms, 5) and searched.count(5) == len(ms)
    assert [m.generators for m in ms] == [search(c2c2, m.basis, 5) for m in ms]
    assert searched.count(5) == len(ms)  # each ideal searches once
    # a walk handed the list searches nothing more; one that finds its own list searches it once
    tower = count_ideals_at_prime(c2c2, 5, 2, _maximal_ideals=ms)
    assert searched.count(5) == len(ms)
    assert count_ideals_at_prime(c2c2, 5, 2) == tower and searched.count(5) == 2 * len(ms)


def test_a_lost_child_trips_the_moebius_check(monkeypatch):
    # every level the descent builds is checked against its Moebius sum
    degree_one = ideals._degree_one_children
    monkeypatch.setattr(ideals, "_degree_one_children", lambda rows, w, p: list(degree_one(rows, w, p))[:-1])
    with pytest.raises(ArithmeticError, match="p = 3"):
        count_ideals_at_prime(drt(6).lam, 3, 6)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_moebius_terms_sum_to_one(q):
    # -mu(0, N) = (-1)^(c+1) q^(c(c-1)/2) on the subspaces N of dimension c
    # of F_q^s, times their number [s, c]_q, counted by ordered bases
    for s in range(1, 7):
        terms = _moebius_terms(s, q)
        assert len(terms) == s
        for c, term in enumerate(terms, 1):
            binom = prod(q**s - q**i for i in range(c)) // prod(q**c - q**i for i in range(c))
            assert term == (-1) ** (c + 1) * q ** (c * (c - 1) // 2) * binom
        assert sum(terms) == 1


def test_descent_residue_field_f4():
    # x^4 + 2x^3 + 3x^2 + 2x + 5 = (x^2 + x + 1)^2 mod 2: one maximal ideal
    # above 2 with residue field F_4, and I/mI two-dimensional over F_4 at
    # index 16, where the children are the five F_4-lines, not F_2-planes
    lam = quotient_ring_table((5, 2, 3, 2, 1))
    assert count_ideals_at_prime(lam, 2, 5) == [1, 0, 1, 0, 5, 0]


def random_hnf(diag, above):
    "An upper triangular 3 x 3 HNF with the given diagonal, reduced above it."
    rows = [[diag[0], above[0] % diag[1], above[1] % diag[2]], [0, diag[1], above[2] % diag[2]], [0, 0, diag[2]]]
    for j in range(3):
        for i in range(j):
            rows[i] = [x - rows[i][j] // rows[j][j] * y for x, y in zip(rows[i], rows[j])]
    return rows


HNF_AND_SUBSPACE = (
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3), max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(*HNF_AND_SUBSPACE)
def test_descent_children_are_canonical_hnfs(p, diag, above, gens):
    # the descent keys each child by the HNF it builds from an echelon basis;
    # it must be the HNF exact.hnf gives for the same lattice
    rows = random_hnf(diag, above)
    sub = rref(gens, p)
    stacked = [[sum(u[k] * rows[k][l] for k in range(3)) for l in range(3)] for u in sub]
    stacked += [[p * x for x in row] for row in rows]
    assert _sublattice(tuple(map(tuple, rows)), sub, p) == hnf(stacked)


@settings(max_examples=40, deadline=None)
@given(*HNF_AND_SUBSPACE)
@example(3, [1, 1, 1], [0, 0, 0], [])  # every hyperplane of F_3^3: 13 children
@example(2, [2, 4, 2], [1, 3, 1], [[1, 0, 1]])
@example(3, [1, 3, 2], [2, 1, 1], [[1, 1, 1]])  # a row of w starts before two free columns
def test_degree_one_children_are_the_canonical_hnfs_of_the_hyperplanes(p, diag, above, gens):
    # for the lattice I of the rows and w in F_p^3 = I/pI, the children are
    # the {c . rows : phi(c) = 0 mod p} for the nonzero functionals phi that
    # vanish on w, one per line of them, each the HNF exact.hnf gives
    rows = random_hnf(diag, above)
    w = rref(gens, p)
    want = set()
    for phi in product(range(p), repeat=3):
        if any(phi) and not any(sum(x * y for x, y in zip(u, phi)) % p for u in w):
            stacked = [[sum(u[k] * rows[k][l] for k in range(3)) for l in range(3)] for u in kernel([[x] for x in phi], p)]
            want.add(hnf(stacked + [[p * x for x in row] for row in rows]))
    children = list(_degree_one_children(tuple(map(tuple, rows)), w, p))
    assert len(children) == len(want) == (p ** (3 - len(w)) - 1) // (p - 1)
    assert set(children) == want


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
@example([5, 2, 3, 2])  # residue field F_4 with I/mI of dimension 2 over it
@example([-1, 0, 0, 0])  # Z[x]/(x^4 - 1), the group ring of C4
def test_descent_matches_stream_on_random_quartic_orders(low):
    lam = quotient_ring_table((*low, 1))
    assert count_ideals(lam, 16).counts == stream_series(lam, 16)


def test_count_ideals_matches_stream_on_every_builtin():
    # count_ideals multiplies prime-power counts into every index; the plain
    # stream, which counts each index on its own, is the reference
    tables = [t.lam for t in (drt(1), drt(6), conference(1), conference(3))]
    tables += [fusion(name).lam for name in FUSION_NAMES]
    tables.append(quotient_ring_table((-1, -1, 1)))
    for lam in tables:
        assert count_ideals(lam, 24).counts == stream_series(lam, 24)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3))
@example([2, 0, 1])  # x^3 + x^2 + 2
def test_collapse_matches_stream_on_random_cubic_orders(low):
    # Z[x]/(f) for a random monic cubic f: the descent against the plain stream
    lam = quotient_ring_table((*low, 1))
    assert count_ideals(lam, 16).counts == stream_series(lam, 16)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=31), st.data())
def test_from_towers_is_the_product_over_prime_powers(bound, data):
    # random towers, of depth 2 to 4 at p = 2, and random a_p at the primes
    # with p^2 > bound, with a_p = 0 and a_p = 1 among the draws, against the
    # definition a_n = prod_p a_{p^v_p(n)}
    towers = {}

    def tower(p, kmax):
        assert p**kmax <= bound < p ** (kmax + 1) and kmax >= 2
        towers[p] = [1] + data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=kmax, max_size=kmax))
        return towers[p]

    primes = primes_up_to(bound)
    large = [p for p in primes if p * p > bound]
    a_p = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=len(large), max_size=len(large)))
    series = IdealCountSeries.from_towers(bound, primes, tower, a_p)
    towers.update({p: [1, a] for p, a in zip(large, a_p)})
    assert sorted(towers) == primes
    for n in range(1, bound + 1):
        want = 1
        for p, v in factorize(n).items():
            want *= towers[p][v]
        assert series.a(n) == want, n


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
