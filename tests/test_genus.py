import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablezeta.dirichlet import expand, theorem_local_factor
from tablezeta.errors import InputError, UnsupportedM
from tablezeta.exact import valuation
from tablezeta.genus import (
    LocalModel,
    RegionPart,
    admissible,
    automorphism_measure_inverse,
    block_triangularize,
    complementary_lattice,
    decompose_domain,
    enumerate_genus_representatives,
    genus_zeta,
    lattices_isomorphic,
    model_for_order,
    region_integral,
    residue_certificate,
    total_local_zeta,
    triple_matrix,
    Region,
)
from tablezeta.ideals import count_ideals_at_prime
from tablezeta.families import drt
from tablezeta.ppoly import PPoly

M1_REPS = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2), (0, 1, 2), (0, 1, 3)]

# expected numerators of the eight genus zeta functions at m = 1, as
# coefficient tuples in t with entries polynomial in p (PPoly coefficients)
P = PPoly.var()


def _z(coeffs):
    return tuple(coeffs)


EXPECTED_M1 = {
    (0, 0, 0): _z((0, 0, 0, 0, 1)),
    (0, 1, 0): _z((0, 0, 0, 1, -1, P)),
    (0, 0, 1): _z((0, 0, 0, 1, -2, P)),
    (1, 0, 1): _z((0, 0, 1, -2, 1, P * P - P)),
    (0, 1, 1): _z((0, 0, 0, P - 1, 1, -2 * P, P * P)),
    (0, 0, 2): _z((0, 1, -2, 1, P * P, -2 * P * P, P * P * P)),
    (0, 1, 2): _z((0, 0, P, -2 * P, P * P, P, -2 * P * P, P * P * P)),
    (0, 1, 3): _z((1, -2, 1, P * P, -2 * P * P, P * P * P, P * P, -2 * P * P * P, P * P * P * P)),
}


def test_m0_two_genera():
    model = model_for_order(7, 7)
    reps = [r.params for r in enumerate_genus_representatives(model)]
    assert reps == [(0, 0, 0), (0, 0, 1)]


def test_m1_eight_classes():
    model = model_for_order(27, 3)
    reps = [r.params for r in enumerate_genus_representatives(model)]
    assert reps == M1_REPS


def test_admissibility_bounds():
    model = model_for_order(27, 3)
    assert not admissible(model, 0, 2, 0)  # i > m
    assert not admissible(model, 0, 0, 3)  # m + i + 1 < j
    assert admissible(model, 0, 1, 3)
    assert admissible(model, 3, 0, 2) and not admissible(model, 3, 0, 1)


def test_iso_units_same_class():
    model = model_for_order(27, 3)
    assert lattices_isomorphic(model, (1, 0, 1), (2, 0, 1))
    assert lattices_isomorphic(model, (1, 0, 1), (1, 0, 1))


def test_iso_distinguishes_zero_from_unit():
    model = model_for_order(27, 3)
    assert not lattices_isomorphic(model, (0, 0, 1), (1, 0, 1))


def bullet_isomorphic(model: LocalModel, t1, t2) -> bool:
    "The classification's three stated cases, used to cross-check the congruence test."
    r, i, j = t1
    s, i2, j2 = t2
    if (i, j) != (i2, j2):
        return False
    if r == s:
        return True
    p = model.p
    if r % p and s % p:
        return True
    for a, b in ((r, s), (s, r)):
        # b = 0 and 1 <= 2i+1 <= v_p(a) < j
        if b == 0 and a != 0 and 2 * i + 1 <= valuation(a, p) < j:
            return True
        if a != 0 and b != 0:
            ka, kb = valuation(a, p), valuation(b, p)
            if 1 <= kb == 2 * i + 1 <= ka < j:
                return True
    return False


def test_enumeration_lists_exactly_the_admissible_triples():
    # the enumeration generates r = 0 and r = p^k u directly; the filter of
    # admissible over every r < p^j is the reference
    for p in (3, 5, 7, 11, 13):
        for m in (0, 1, 2):
            if p > 7 and m == 2:
                continue
            model = LocalModel(p=p, m=m, v=1)
            want = sorted(
                ((r, i, j) for i in range(m + 1) for j in range(2 * m + 2) for r in range(p**j) if admissible(model, r, i, j)),
                key=lambda t: (t[1] + t[2], t[2], t[0]),
            )
            got = [lat.params for lat in enumerate_genus_representatives(model, classify=False)]
            assert got == want


def test_iso_equivalence_and_bullets_m1():
    for p, n in ((3, 27), (5, 125)):
        model = model_for_order(n, p)
        trips = [
            (r, i, j)
            for i in range(2)
            for j in range(4)
            for r in range(p**j)
            if admissible(model, r, i, j)
        ]
        iso = {(a, b): lattices_isomorphic(model, a, b) for a in trips for b in trips}
        for a in trips:
            assert iso[(a, a)]
        for a, b in itertools.combinations(trips, 2):
            assert iso[(a, b)] == iso[(b, a)]
            assert iso[(a, b)] == bullet_isomorphic(model, a, b)
        for a in trips:
            for b in trips:
                if iso[(a, b)]:
                    for c in trips:
                        if iso[(b, c)]:
                            assert iso[(a, c)]


def test_block_triangularize_identity_cases():
    model = model_for_order(27, 3)
    h = triple_matrix(model, (0, 1, 2))
    assert block_triangularize(model, h).matrix == h
    permuted = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert block_triangularize(model, permuted).matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_block_triangularize_family_basis():
    for u, p in ((1, 7), (6, 3)):
        model = model_for_order(4 * u + 3, p)
        pm = p**model.m
        rows = [
            (0, 1, 1),
            (Fraction(pm, 2), Fraction(-1, 2), 2 * u + 1),
            (Fraction(-pm, 2), Fraction(-1, 2), 2 * u + 1),
        ]
        assert block_triangularize(model, rows).matrix == triple_matrix(model, model.lam_triple)


def complement_expected(p, v):
    pc = p**3
    kappa = (p * p * v) % pc
    return {
        (0, 0, 0): ((p**2, 0, 0), (0, pc, 0), (0, 0, pc)),
        (0, 1, 0): ((p, 0, 0), (0, pc, 0), (0, 0, pc)),
        (0, 0, 1): ((p**2, 0, 0), (0, p**2, p**2), (0, 0, pc)),
        (1, 0, 1): ((p, kappa, kappa), (0, pc, 0), (0, 0, pc)),
        (0, 1, 1): ((p, 0, 0), (0, p**2, p**2), (0, 0, pc)),
        (0, 0, 2): ((p**2, 0, 0), (0, p, p), (0, 0, pc)),
        (0, 1, 2): ((p, 0, 0), (0, p, p), (0, 0, pc)),
        (0, 1, 3): ((p, 0, 0), (0, 1, 1), (0, 0, pc)),
    }


@pytest.mark.parametrize("p", [3, 5])
def test_complementary_lattices_all_representatives(p):
    n = p**3
    model = LocalModel(p=p, m=1, v=(1 if n % 4 == 1 else -1))
    expected = complement_expected(p, model.v)
    for rep in enumerate_genus_representatives(model):
        assert complementary_lattice(model, rep).matrix == expected[rep.params]


def test_multiplier_orders():
    model = model_for_order(27, 3)
    lam = triple_matrix(model, model.lam_triple)
    assert complementary_lattice(model, (0, 1, 3), target=(0, 1, 3)).matrix == lam
    assert complementary_lattice(model, (1, 0, 1), target=(1, 0, 1)).matrix == triple_matrix(model, (0, 1, 1))
    assert complementary_lattice(model, (0, 0, 2), target=(0, 0, 2)).matrix == triple_matrix(model, (0, 1, 2))


@pytest.mark.parametrize("p", [3, 5])
def test_automorphism_index_list(p):
    model = LocalModel(p=p, m=1, v=(1 if p**3 % 4 == 1 else -1))
    expect = {
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
        assert automorphism_measure_inverse(model, rep.params) == expect[rep.params]


def test_symbolic_measures_match_numeric():
    sym = LocalModel(p=None, m=1, v=None)
    num = model_for_order(27, 3)
    for rep in enumerate_genus_representatives(sym):
        assert automorphism_measure_inverse(sym, rep.params)(3) == automorphism_measure_inverse(
            num, rep.params
        )


ODD_PRIMES_TO_47 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@pytest.mark.parametrize("p", ODD_PRIMES_TO_47)
def test_symbolic_closed_forms_match_numeric(p):
    # the numeric measure is the symbolic one at p, and the numeric
    # complementary lattice has the symbolic exponent matrix (entry v_p,
    # None for 0), for both signs of the unit v
    for m in (0, 1):
        sym = LocalModel(p=None, m=m, v=None)
        sym_reps = [rep.params for rep in enumerate_genus_representatives(sym)]
        for v in (1, -1):
            num = LocalModel(p=p, m=m, v=v)
            assert [rep.params for rep in enumerate_genus_representatives(num)] == sym_reps
            for params in sym_reps:
                assert automorphism_measure_inverse(num, params) == automorphism_measure_inverse(sym, params)(p)
                comp = complementary_lattice(num, params).matrix
                exps = [[None if x == 0 else valuation(x, p) for x in row] for row in comp]
                assert exps == complementary_lattice(sym, params), (m, v, params)


def test_region_integral_tail_pair():
    model = model_for_order(27, 3)
    reg = Region(RegionPart("tail", 5), RegionPart("tail", 3), PPoly(1))
    f = region_integral(model, reg)
    # p^{-8s} zeta^2
    assert f.num == (0,) * 8 + (1,) and f.den == (1, -2, 1)


def test_region_integral_unit_coset():
    model = model_for_order(27, 3)
    reg = Region(RegionPart("coset", 0, 2), RegionPart("tail", 0), PPoly(1))
    f = region_integral(model, reg)
    # U^(2) measure 1/(p(p-1)) times a zeta tail: numerator (1-t)/6 at p=3
    assert f.num[0] == Fraction(1, 6)
    assert f.num[1] == -Fraction(1, 6)


def test_region_scaling_shifts_exponent():
    model = model_for_order(27, 3)
    base = Region(RegionPart("coset", 0, 1), RegionPart("tail", 0), PPoly(1))
    shifted = Region(RegionPart("coset", 1, 1), RegionPart("tail", 0), PPoly(1))
    fb = region_integral(model, base)
    fs = region_integral(model, shifted)
    assert fs.num == (0,) + fb.num


def test_decompose_lambda0_single_tail_pair():
    model = model_for_order(27, 3)
    regions = decompose_domain(model, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(regions) == 1
    assert regions[0].quadratic == RegionPart("tail", 0)
    assert regions[0].rational == RegionPart("tail", 0)


def test_decompose_m010_complement_regions():
    model = model_for_order(27, 3)
    comp = complementary_lattice(model, (0, 1, 0))
    regions = decompose_domain(model, comp)
    kinds = sorted((r.quadratic.kind, r.rational.kind) for r in regions)
    assert kinds == [("coset", "tail"), ("tail", "tail")]
    coset = next(r for r in regions if r.quadratic.kind == "coset")
    assert coset.quadratic == RegionPart("coset", 3, 2)
    assert coset.rational == RegionPart("tail", 3)
    assert coset.count == PPoly((-1, 1))  # p - 1 translates
    tails = next(r for r in regions if r.quadratic.kind == "tail")
    assert tails.quadratic == RegionPart("tail", 5) and tails.rational == RegionPart("tail", 3)


def test_decompose_m011_complement_three_region_families():
    model = model_for_order(27, 3)
    comp = complementary_lattice(model, (0, 1, 1))
    regions = decompose_domain(model, comp)
    assert len(regions) >= 3
    # unit-measure normalization: only valuation-0 pieces meet the units
    total = sum(r.count(3) * _unit_measure(model, r) for r in regions)
    assert total == 0  # the complement contains no units


def _unit_measure(model, region):
    out = Fraction(1)
    for part in (region.quadratic, region.rational):
        if part.valuation > 0:
            return Fraction(0)
        if part.kind == "coset":
            out /= model.p ** (part.depth - 1) * (model.p - 1)
    return out


def test_unit_measures_sum_to_one_on_lambda0():
    model = model_for_order(27, 3)
    regions = decompose_domain(model, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert sum(r.count(3) * _unit_measure(model, r) for r in regions) == 1


def test_unit_measure_of_lambda_is_automorphism_inverse():
    model = model_for_order(27, 3)
    lam = triple_matrix(model, model.lam_triple)
    regions = decompose_domain(model, lam)
    total = sum(r.count(3) * _unit_measure(model, r) for r in regions)
    assert total == Fraction(1, automorphism_measure_inverse(model, (0, 1, 3)))


@pytest.mark.parametrize("p", [3, 5])
def test_residue_certificates_both_precisions(p):
    model = LocalModel(p=p, m=1, v=(1 if p**3 % 4 == 1 else -1))
    for rep in enumerate_genus_representatives(model):
        comp = complementary_lattice(model, rep)
        regions = decompose_domain(model, comp)
        for K in (2 * model.m + 2, 2 * model.m + 4):
            lhs, rhs = residue_certificate(model, comp, regions, K)
            assert lhs == rhs


def test_residue_certificates_symbolic():
    model = LocalModel(p=None, m=1, v=None)
    for rep in enumerate_genus_representatives(model):
        comp = complementary_lattice(model, rep)
        regions = decompose_domain(model, comp)
        for K in (4, 6):
            lhs, rhs = residue_certificate(model, comp, regions, K)
            assert lhs == rhs


def test_genus_zeta_m0():
    model = model_for_order(7, 7)
    z0 = genus_zeta(model, (0, 0, 0))
    assert z0.num == (0, 1) and z0.den == (1, -2, 1)  # p^{-s} zeta^2
    z1 = genus_zeta(model, (0, 0, 1))
    assert z1.num == (1, -2, 7)  # 1 + (p-1) t^2 zeta^2 over (1-t)^2


@pytest.mark.parametrize("params", M1_REPS)
def test_genus_zeta_m1_symbolic_equations(params):
    model = LocalModel(p=None, m=1, v=None)
    z = genus_zeta(model, params)
    want = EXPECTED_M1[params]
    assert len(z.num) == len(want)
    for got, exp in zip(z.num, want):
        assert got == exp


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_total_m0_matches_theorem(p):
    model = LocalModel(p=p, m=0, v=(1 if p % 4 == 1 else -1))
    assert total_local_zeta(model).equals(theorem_local_factor("v1", p).reduced())


def test_total_m0_symbolic():
    model = LocalModel(p=None, m=0, v=None)
    assert total_local_zeta(model).equals(theorem_local_factor("v1", None).reduced())


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_total_m1_matches_theorem(p):
    model = LocalModel(p=p, m=1, v=(1 if p**3 % 4 == 1 else -1))
    assert total_local_zeta(model).equals(theorem_local_factor("v3", p).reduced())


def test_total_m1_symbolic():
    model = LocalModel(p=None, m=1, v=None)
    assert total_local_zeta(model).equals(theorem_local_factor("v3", None).reduced())


def test_total_m1_matches_oracle_drt6():
    model = model_for_order(27, 3)
    total = total_local_zeta(model)
    assert expand(total, 6) == count_ideals_at_prime(drt(6).lam, 3, 6)


def test_total_m1_matches_oracle_conference31():
    # the symmetric family hits v = +1: n = 125 at p = 5
    from tablezeta.families import conference

    model = model_for_order(125, 5)
    assert model.v == 1
    total = total_local_zeta(model)
    assert expand(total, 4) == count_ideals_at_prime(conference(31).lam, 5, 4)


def test_unsupported_m2_classification():
    model = LocalModel(p=3, m=2, v=-1)
    with pytest.raises(UnsupportedM):
        enumerate_genus_representatives(model)
    reps = enumerate_genus_representatives(model, classify=False)
    assert len(reps) > 8  # enumeration itself still works


def test_v_sign_convention():
    assert model_for_order(27, 3).v == -1  # 27 = 3 mod 4: pi^2 = -27/9 p
    assert model_for_order(125, 5).v == 1  # 125 = 1 mod 4
    assert model_for_order(7, 7).v == -1
    assert model_for_order(5, 5).v == 1


@pytest.mark.parametrize("p", [4, 9, 15])
def test_local_model_rejects_composite_p(p):
    with pytest.raises(InputError, match="prime"):
        LocalModel(p=p, m=0, v=1)


@pytest.mark.parametrize("p", [3, None])
def test_local_model_rejects_negative_m(p):
    with pytest.raises(InputError, match="m must be"):
        LocalModel(p=p, m=-1, v=1)


_INT_POLY = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(_INT_POLY, _INT_POLY, st.integers(min_value=-10, max_value=10))
def test_ppoly_arithmetic_matches_evaluation(a, b, x):
    a, b = PPoly(a), PPoly(b)
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)
    if not b.is_zero():
        assert (a * b).divide_exact(b) == a


def test_ppoly_divide_exact_errors():
    for num, den in ((P + 1, 2), (P * P + 1, P)):  # non-integral quotient, remainder
        with pytest.raises(ArithmeticError) as err:
            num.divide_exact(den)
        assert not isinstance(err.value, ZeroDivisionError)
    with pytest.raises(ZeroDivisionError):
        (P + 1).divide_exact(0)
    assert PPoly(0).divide_exact(P + 1) == PPoly(0)
