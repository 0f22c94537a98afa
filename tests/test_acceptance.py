"""Acceptance suite: every criterion is an exact identity, no tolerances.

Each test prints one PASS line so `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

from math import gcd

import pytest

from tablezeta import TableAlgebra
from tablezeta.dirichlet import expand, theorem_local_factor
from tablezeta.families import conference, drt, fusion
from tablezeta.genus import (
    LocalModel,
    admissible,
    automorphism_measure_inverse,
    complementary_lattice,
    decompose_domain,
    enumerate_genus_representatives,
    genus_zeta,
    lattices_isomorphic,
    total_local_zeta,
)
from tablezeta.ideals import count_ideals, count_ideals_at_prime
from tablezeta.decomposition import maximal_order
from tablezeta.pipeline import verify_order
from tablezeta.ppoly import PPoly

from references import (
    character_formula_idempotents,
    divisor_tuples,
    enumerate_sublattices,
    residue_certificate,
    stream_series,
)

ALL_BUILTINS = {
    "drt(1)": drt(1),
    "drt(6)": drt(6),
    "conference(1)": conference(1),
    "conference(3)": conference(3),
    "fib": fusion("fib"),
    "c2": fusion("c2"),
    "ising": fusion("ising"),
    "reps3": fusion("reps3"),
    "psu5l2": fusion("psu5l2"),
    "e6": fusion("e6"),
    "c3": fusion("c3"),
}


def _model(p, m):
    if p is None:
        return LocalModel(p=None, m=m, v=None)
    n = p ** (2 * m + 1)
    return LocalModel(p=p, m=m, v=(1 if n % 4 == 1 else -1))


def test_acceptance_1_valuation1_closed_form():
    for p in (3, 5, 7, 11, 13, None):
        total = total_local_zeta(_model(p, 0))
        assert total.equals(theorem_local_factor("v1", p).reduced()), p
    print("\nACCEPTANCE 1: PASS - local zeta at valuation 1 equals (1 - t + p t^2)/(1-t)^2 "
          "for p in {3,5,7,11,13} and symbolically in p")


def test_acceptance_2_valuation1_oracle():
    cases = [(drt(1), 7), (conference(1), 5), (conference(3), 13)]
    for t, p in cases:
        counts = count_ideals_at_prime(t.lam, p, 3)
        assert counts == expand(theorem_local_factor("v1", p), 3)
        assert counts == [1] + [1 + (k - 1) * p for k in (1, 2, 3)]
    print("ACCEPTANCE 2: PASS - HNF oracle reproduces a_{p^k} = 1 + (k-1)p at p = n "
          "for drt(1), conference(1), conference(3)")


def test_acceptance_3_valuation3_closed_forms():
    model = _model(None, 1)
    p = PPoly.var()
    p2, p3, p4 = p * p, p * p * p, p * p * p * p
    expected = {
        (0, 0, 0): (0, 0, 0, 0, 1),
        (0, 1, 0): (0, 0, 0, 1, -1, p),
        (0, 0, 1): (0, 0, 0, 1, -2, p),
        (1, 0, 1): (0, 0, 1, -2, 1, p2 - p),
        (0, 1, 1): (0, 0, 0, p - 1, 1, -2 * p, p2),
        (0, 0, 2): (0, 1, -2, 1, p2, -2 * p2, p3),
        (0, 1, 2): (0, 0, p, -2 * p, p2, p, -2 * p2, p3),
        (0, 1, 3): (1, -2, 1, p2, -2 * p2, p3, p2, -2 * p3, p4),
    }
    total = None
    for rep in enumerate_genus_representatives(model):
        z = genus_zeta(model, rep)
        want = expected[rep]
        assert len(z.num) == len(want) and all(a == b for a, b in zip(z.num, want)), rep
    assert total_local_zeta(model).equals(theorem_local_factor("v3", None).reduced())
    print("ACCEPTANCE 3: PASS - the eight genus zeta functions and their sum match the "
          "valuation-3 closed forms symbolically in p")


def test_acceptance_4_complementary_lattices():
    for p in (3, 5):
        model = _model(p, 1)
        v = model.v
        pc = p**3
        expected = {
            (0, 0, 0): ((p**2, 0, 0), (0, pc, 0), (0, 0, pc)),
            (0, 1, 0): ((p, 0, 0), (0, pc, 0), (0, 0, pc)),
            (0, 0, 1): ((p**2, 0, 0), (0, p**2, p**2), (0, 0, pc)),
            (1, 0, 1): ((p, p * p * v % pc, p * p * v % pc), (0, pc, 0), (0, 0, pc)),
            (0, 1, 1): ((p, 0, 0), (0, p**2, p**2), (0, 0, pc)),
            (0, 0, 2): ((p**2, 0, 0), (0, p, p), (0, 0, pc)),
            (0, 1, 2): ((p, 0, 0), (0, p, p), (0, 0, pc)),
            (0, 1, 3): ((p, 0, 0), (0, 1, 1), (0, 0, pc)),
        }
        for rep in enumerate_genus_representatives(model):
            assert complementary_lattice(model, rep).matrix == expected[rep], (p, rep)
    print("ACCEPTANCE 4: PASS - all eight complementary lattices match their expected forms "
          "at p in {3,5}")


def test_acceptance_5_automorphism_indices():
    for p in (3, 5):
        model = _model(p, 1)
        expected = {
            (0, 1, 3): p**3 * (p - 1),
            (0, 1, 2): p**2 * (p - 1),
            (0, 0, 2): p**2 * (p - 1),
            (0, 1, 1): p * (p - 1),
            (1, 0, 1): p * (p - 1),
            (0, 1, 0): p,
            (0, 0, 1): p - 1,
            (0, 0, 0): 1,
        }
        for rep in enumerate_genus_representatives(model):
            assert automorphism_measure_inverse(model, rep) == expected[rep], (p, rep)
    print("ACCEPTANCE 5: PASS - automorphism measure inverses match the expected index list "
          "at p in {3,5}")


def test_acceptance_6_valuation3_oracle():
    counts = count_ideals_at_prime(drt(6).lam, 3, 6)
    want = expand(theorem_local_factor("v3", 3), 6)
    assert counts == want == [1, 1, 4, 13, 22, 49, 103]
    print("ACCEPTANCE 6: PASS - oracle ideal counts of drt(6) at p=3 up to 3^6 equal the "
          "valuation-3 closed form")


def test_acceptance_7_global_fusion_zetas():
    expected_deltas = {
        "fib": {},
        "c2": {2: (1, -1, 2)},
        "ising": {2: (1, -1, 2)},
        "reps3": {2: (1, -1, 2), 3: (1, -1, 3)},
        "e6": {2: (1, -1, 2)},
        "c3": {3: (1, -1, 3)},
        "psu5l2": {},
    }
    for name, want in expected_deltas.items():
        res = verify_order(fusion(name), 64)
        assert res.passed, name
        nontrivial = {p: d for p, d in res.deltas.items() if d != (1,)}
        assert nontrivial == want, (name, res.deltas)
    print("ACCEPTANCE 7: PASS - global Euler products equal oracle ideal counts to N=64 for "
          "all seven fusion rings, with the expected exceptional polynomials")


def test_acceptance_8_idempotent_double_derivation():
    for label, t in ALL_BUILTINS.items():
        crt = maximal_order(t).idempotents
        char = character_formula_idempotents(t)
        assert crt == char, label
    print("ACCEPTANCE 8: PASS - character-formula idempotents equal CRT idempotents on every "
          "built-in")


def test_acceptance_9_property_suites():
    # (a) dim-3 sublattice counts match the divisor formula for n <= 30
    for n in range(1, 31):
        want = sum(d2 * d3 * d3 for _, d2, d3 in divisor_tuples(n, 3))
        assert sum(1 for _ in enumerate_sublattices(3, n)) == want
    # (b) multiplicativity of ideal counts on every built-in up to 64; count_ideals
    # builds a_mn as a_m a_n, so this checks its sweep, and (b') checks the
    # theorem on the plain stream, which counts every a_n on its own
    for label, t in ALL_BUILTINS.items():
        for bound, counts in ((64, count_ideals(t.lam, 64).counts), (48, stream_series(t.lam, 48))):
            for m in range(2, bound + 1):
                for n in range(2, bound // m + 1):
                    if gcd(m, n) == 1:
                        assert counts[m * n - 1] == counts[m - 1] * counts[n - 1], (label, bound, m, n)
    # (c) isomorphism is an equivalence relation, exhaustively at m=1, p in {3,5}
    for p in (3, 5):
        model = _model(p, 1)
        trips = [
            (r, i, j)
            for i in range(2)
            for j in range(4)
            for r in range(p**j)
            if admissible(model, r, i, j)
        ]
        iso = {(a, b): lattices_isomorphic(model, a, b) for a in trips for b in trips}
        assert all(iso[(a, a)] for a in trips)
        assert all(iso[(a, b)] == iso[(b, a)] for a in trips for b in trips)
        for a in trips:
            for b in trips:
                if iso[(a, b)]:
                    for c in trips:
                        if iso[(b, c)]:
                            assert iso[(a, c)]
    # (d) region decompositions carry disjoint/exhaustive residue certificates
    for p in (3, 5, None):
        model = _model(p, 1)
        for rep in enumerate_genus_representatives(model):
            comp = complementary_lattice(model, rep)
            regions = decompose_domain(model, comp)
            for K in (4, 6):
                lhs, rhs = residue_certificate(model, comp, regions, K)
                assert lhs == rhs, (p, rep, K)
    print("ACCEPTANCE 9: PASS - enumeration formula (n<=30), multiplicativity on all built-ins "
          "(count_ideals to N=64, the plain stream to N=48), isomorphism equivalence "
          "(m=1, p in {3,5}), residue certificates at both "
          "precisions (numeric and symbolic)")


def test_acceptance_10_group_ring_c4_verify():
    # Z[C4] has rank 4, where the oracle descends through maximal sub-ideals;
    # delta_2 is Solomon's exact value for the group ring of C4
    lam = [[[1 if (i + j) % 4 == k else 0 for k in range(4)] for j in range(4)] for i in range(4)]
    res = verify_order(TableAlgebra(4, lam, (0, 3, 2, 1)), 64)
    assert res.passed
    assert res.deltas == {2: (1, -2, 3, 0, 6, -8, 8)}
    assert sum(res.oracle.counts) == 495
    print("ACCEPTANCE 10: PASS - verify on Z[C4] at N=64 with delta_2 = 1 - 2t + 3t^2 + 6t^4 - 8t^5 "
          "+ 8t^6 and 495 ideals of index <= 64")
