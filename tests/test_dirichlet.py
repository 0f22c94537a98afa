import itertools
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablezeta import LocalRationalFunction, assemble_global, expand, infer_local_polynomial, theorem_local_factor
from tablezeta.decomposition import maximal_order
from tablezeta import dirichlet
from tablezeta.dirichlet import maximal_local_factor, residue_degrees_mod_p
from tablezeta.errors import DegreeBoundExceeded, InputError, MissingBadPrime
from tablezeta.pipeline import infer_exceptional_factors, zeta_series
from tablezeta.exact import discriminant, factorize, primes_up_to
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.polys import pmul
from tablezeta.ideals import IdealCountSeries, count_ideals, count_ideals_at_prime

from references import assemble_global_per_prime, quotient_ring_table

GOLDEN_RING = (-1, -1, 1)  # x^2 - x - 1, discriminant 5


def test_dedekind_factor_ramified():
    f = maximal_local_factor((GOLDEN_RING,), 5)
    assert f.num == (1,) and f.den == (1, -1)


def test_dedekind_factor_split():
    f = maximal_local_factor((GOLDEN_RING,), 11)
    assert f.den == (1, -2, 1)
    assert expand(f, 1) == [1, 2]


def test_dedekind_factor_inert():
    f = maximal_local_factor((GOLDEN_RING,), 2)
    assert f.den == (1, 0, -1)
    assert expand(f, 2) == [1, 0, 1]


def test_dedekind_matches_oracle_counts():
    lam = quotient_ring_table(GOLDEN_RING)
    for p in (2, 3, 5, 11):
        counts = count_ideals_at_prime(lam, p, 2)
        assert counts == expand(maximal_local_factor((GOLDEN_RING,), p), 2)


def test_totally_ramified_cubic_at_7():
    # x^3 - 2x^2 - x + 1 mod 7 = (x - 3)^3
    assert residue_degrees_mod_p((1, -1, -2, 1), 7) == [1]


def _degrees_by_root_search(poly, p):
    """Reference for residue_degrees_mod_p, as (degree, multiplicity) pairs:
    the multiplicity of each residue r as a root is how often (x - r)
    divides f mod p; whatever degree is left after removing all roots is
    one irreducible factor (deg f <= 3)."""
    f = [c % p for c in poly]
    out = []
    for r in range(p):
        mult = 0
        while len(f) > 1 and sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0:
            quotient = [0] * (len(f) - 1)
            carry = 0
            for i in range(len(f) - 1, 0, -1):
                carry = (carry * r + f[i]) % p
                quotient[i - 1] = carry
            f = quotient
            mult += 1
        if mult:
            out.append((1, mult))
    if len(f) > 1:
        out.append((len(f) - 1, 1))
    return out


@pytest.mark.parametrize("p", primes_up_to(40))
def test_factor_degrees_match_root_search(p):
    for deg in (1, 2, 3):
        for low in itertools.product(range(-4, 5), repeat=deg):
            poly = (*low, 1)
            assert residue_degrees_mod_p(poly, p) == [d for d, _ in _degrees_by_root_search(poly, p)], poly


def _with_repeated_root(low, p):
    """(x - r)^2 (x - s)^(deg - 2) + p (low), with r = low[0], s = low[-1]
    and deg = len(low): monic, and p divides its discriminant."""
    f = (1,)
    for root in (low[0], low[0], low[-1])[: len(low)]:
        f = pmul(f, (-root, 1))
    return tuple(c + p * x for c, x in zip(f, low)) + (1,)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=3),
    st.sampled_from(primes_up_to(2000)),
    st.booleans(),
)
def test_factor_degrees_match_root_search_large(low, p, p_divides_disc):
    poly = _with_repeated_root(low, p) if p_divides_disc else (*low, 1)
    assert residue_degrees_mod_p(poly, p) == [d for d, _ in _degrees_by_root_search(poly, p)]


@pytest.mark.parametrize("p", [1, 4, 9, 91, 6561])
def test_residue_degrees_reject_composite_p(p):
    with pytest.raises(InputError):
        residue_degrees_mod_p((-1, -1, 1), p)


@pytest.mark.parametrize("poly, p", [((1, 0, 2), 3), ((1, 1, 1, 3), 5), ((2, 0, 0, 7), 7)])
def test_residue_degrees_reject_non_monic(poly, p):
    with pytest.raises(InputError):
        residue_degrees_mod_p(poly, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("low", [(-1, -1), (1, -1, -2), (-2, 0, 0), (3, 1), (0, 0, -1)])
def test_residue_degrees_of_a_polynomial_monic_only_mod_p(low, p):
    # leading coefficient p + 1: the residue degrees are those of the monic
    # reduction, whose discriminant is taken from the reduced coefficients,
    # never from the non-monic integer polynomial
    monic = (*low, 1)
    assert residue_degrees_mod_p((*low, p + 1), p) == residue_degrees_mod_p(monic, p)
    assert residue_degrees_mod_p((*low, p + 1), p) == [d for d, _ in _degrees_by_root_search(monic, p)]


def test_assemble_refuses_a_ring_that_is_not_monic():
    # 3 is 1 mod 2, but the ring's discriminant is taken once, over Z
    with pytest.raises(InputError, match="monic"):
        assemble_global([(-1, -1, 3)], [], {}, 2)
    with pytest.raises(InputError, match="monic"):
        maximal_local_factor([(-1, -1, 3)], 2)


@pytest.mark.parametrize("ring", [(1, 0, 0, 0, 1), (-1, -1, 3)])
def test_assemble_refusals_survive_the_root_counts(ring):
    # at bounds 2 and 3 every prime has p^2 > N and takes only a root count;
    # a ring that a bound with a residue-degree pattern refuses (not monic)
    # is refused alike, and one it takes (x^4 + 1, of degree 4) gets the
    # same coefficients
    if ring[-1] == 1:
        deep = assemble_global([(0, 1), ring], [], {}, 6561)
        for bound in (2, 3):
            assert assemble_global([(0, 1), ring], [], {}, bound).counts == deep.counts[:bound]
        return
    with pytest.raises(InputError) as deep:
        assemble_global([(0, 1), ring], [], {}, 6561)
    for bound in (2, 3):
        with pytest.raises(InputError) as shallow:
            assemble_global([(0, 1), ring], [], {}, bound)
        assert str(shallow.value) == str(deep.value)


_HAND_RINGS = [
    [(0, 1)],  # linear: one root at every p
    [(-1, -1, 1)],  # x^2 - x - 1, D = 5
    [(-101, 0, 1)],  # D = 404: the good prime 101 divides it
    [(-2, 0, 0, 1)],  # D = -108, not a square: symbol -1 at half the primes
    [(1, -1, -2, 1)],  # psu5l2's cubic, D = 49: symbol +1 or 0 at every p
    [(1,), (0, 1), (-1, -1, 1), (-2, 0, 0, 1)],  # a constant has no root
    [(0, 1), (0, 1), (1, -1, -2, 1)],
    [(1, 1, 1, 1, 1)],  # Phi_5, D = 125: four roots at p = 1 mod 5, one at 5, none elsewhere
    [(1, 0, 0, 0, 1)],  # x^4 + 1, D = 256: four roots at p = 1 mod 8, one at 2, none elsewhere
]


@pytest.mark.parametrize("rings", _HAND_RINGS)
def test_root_counts_equal_the_degree_one_primes(rings):
    """a_p for p^2 > N is the number of residue-degree-1 primes above p, at
    every prime up to 6561 (p = 2 and every p <= 81 at N = p)."""
    deep = assemble_global(rings, [], {}, 6561)
    for p in primes_up_to(6561):
        series = deep if p * p > 6561 else assemble_global(rings, [], {}, p)
        assert series.a(p) == sum(residue_degrees_mod_p(ring, p).count(1) for ring in rings), (rings, p)


def test_root_count_at_a_good_prime_dividing_the_discriminant():
    # x^2 - 101 = x^2 mod 101, one root, and 101^2 > 2000
    assert residue_degrees_mod_p((-101, 0, 1), 101) == [1]
    assert assemble_global([(0, 1), (-101, 0, 1)], [], {}, 2000).a(101) == 2
    # psu5l2's cubic at 7, 7 | D = 49: (x - 3)^3, one root, and 7^2 > 7
    assert assemble_global([(1, -1, -2, 1)], [], {}, 7).a(7) == 1


def test_assemble_takes_a_quartic_at_good_primes():
    # Z[zeta_5] = Z[x]/(Phi_5) is its own maximal order, so its Euler
    # product, with residue degrees from the factors of Phi_5 mod p, is its
    # ideal count
    phi5 = (1, 1, 1, 1, 1)
    assert assemble_global([phi5], [], {}, 400) == count_ideals(quotient_ring_table(phi5), 400)


@pytest.mark.parametrize(
    "t, bound",
    [(fusion(name), 6561) for name in FUSION_NAMES]
    + [(drt(u), 6561) for u in (1, 2, 3, 6)]
    + [(conference(u), 6561) for u in (1, 3)]
    + [(conference(25), 2000)],  # its bad prime 101 has 101^2 > 2000: its factor, not a root count
    ids=[*FUSION_NAMES, "drt1", "drt2", "drt3", "drt6", "conference1", "conference3", "conference25"],
)
def test_assemble_equals_the_per_prime_reference(t, bound):
    data = maximal_order(t)
    exceptional = {p: f.full for p, f in infer_exceptional_factors(t, data, bound).items()}
    series = assemble_global(data.rings, data.bad_primes, exceptional, bound)
    assert series == assemble_global_per_prime(data.rings, data.bad_primes, exceptional, bound)


_MONIC = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3).map(lambda low: (*low, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(_MONIC, min_size=1, max_size=3), st.data())
def test_assemble_equals_the_reference_on_random_rings(rings, data):
    # random monic linear, quadratic and cubic rings, at bounds p^2 - 1, p^2
    # and p^2 + 1 for a small p or a p dividing a discriminant, with random
    # exceptional factors at random bad primes, some with p^2 > N: the
    # one-pass assembly against the per-prime reference, which takes
    # Euler's criterion at every prime and the product by the definition
    divisors = {q for ring in rings for q in factorize(abs(discriminant(ring)) or 1) if q <= 23}
    p = data.draw(st.sampled_from(sorted(divisors | {2, 3, 5})))
    bound = p * p + data.draw(st.sampled_from([-1, 0, 1]))
    bad = data.draw(st.lists(st.sampled_from(primes_up_to(bound)), max_size=3, unique=True))
    coeff = st.integers(min_value=-4, max_value=4)
    exceptional = {
        q: LocalRationalFunction(q, (1, *data.draw(st.lists(coeff, max_size=3))), (1, *data.draw(st.lists(coeff, max_size=2))))
        for q in bad
    }
    want = assemble_global_per_prime(rings, bad, exceptional, bound)
    assert assemble_global(rings, bad, exceptional, bound) == want


_DISCRIMINANTS = [d for d in range(-200, 201) if d % 4 in (0, 1) and not (d >= 0 and isqrt(d) ** 2 == d)]


def test_euler_criterion_depends_only_on_the_residue_class():
    # the lemma the assembly rests on: (D/p) is a character mod |D| for a
    # non-square discriminant D = 0, 1 mod 4, so Euler's criterion agrees
    # at odd primes p = q mod |D| that do not divide D
    primes = primes_up_to(3000)[1:]
    for disc in _DISCRIMINANTS:
        seen = {}
        for p in primes:
            if disc % p:
                symbol = pow(disc, (p - 1) // 2, p) == 1
                assert seen.setdefault(p % abs(disc), symbol) == symbol, (disc, p)


def test_ising_takes_one_residue_symbol_per_residue_class(monkeypatch):
    # a counter that does not depend on the machine: x^2 - 2, of
    # discriminant 8, has four odd residue classes mod 8, so zeta to 6561
    # evaluates Euler's criterion at most 8 times (about 825 times at
    # every odd prime)
    calls = []
    symbol = dirichlet._residue_symbol

    def counting(disc, p):
        calls.append(p)
        return symbol(disc, p)

    monkeypatch.setattr(dirichlet, "_residue_symbol", counting)
    series = zeta_series(fusion("ising"), 6561)
    assert len(calls) <= 8, calls
    monkeypatch.undo()
    assert series == zeta_series(fusion("ising"), 6561)


@pytest.mark.parametrize(
    "poly, p, expected",
    [
        ((1, 1, 1), 2, [2]),  # p = 2, squarefree: roots by gcd(f, x^2 - x)
        ((0, 1, 1), 2, [1, 1]),
        ((1, 1, 0, 1), 2, [3]),
        ((-5, 0, 1), 5, [1]),  # p | disc: every distinct factor is linear, counted by the gcd
        ((0, 0, -1, 1), 5, [1, 1]),
        ((-2, 0, 0, 1), 3, [1]),
        ((-2, 0, 0, 1), 5, [1, 2]),  # disc -108 is a non-residue mod 5: one root
        ((1, -1, -2, 1), 13, [1, 1, 1]),  # psu5l2's cubic, symbol +1, splits
        ((1, -1, -2, 1), 3, [3]),  # same cubic, symbol +1, irreducible
    ],
)
def test_factor_degrees_each_branch(poly, p, expected):
    assert residue_degrees_mod_p(poly, p) == expected == [d for d, _ in _degrees_by_root_search(poly, p)]


@pytest.mark.parametrize("p", [6481, 6491, 6521, 6529, 6547, 6551, 6553, 6563])
def test_factor_degrees_large_prime_euler_criterion(p):
    # x^2 - x - 1 has discriminant 5: two roots mod p iff 5 is a square mod p
    roots = 2 if pow(5, (p - 1) // 2, p) == 1 else 0
    expected = [1, 1] if roots else [2]
    assert residue_degrees_mod_p((-1, -1, 1), p) == expected


def _product_over_factorization(rings, exceptional, bound):
    "a_n as the product of expand(local_p, k)[k] over p^k || n, factor by factor."
    local = dict(exceptional)
    for p in primes_up_to(bound):
        if p not in local:
            den = (1,)
            for ring in rings:
                for deg, _ in _degrees_by_root_search(ring, p):
                    den = pmul(den, (1,) + (0,) * (deg - 1) + (-1,))
            local[p] = LocalRationalFunction(p, (1,), den)
    out = []
    for n in range(1, bound + 1):
        a = 1
        for p, k in factorize(n).items():
            a *= expand(local[p], k)[k]
        out.append(a)
    return tuple(out)


@pytest.mark.parametrize(
    "t, deltas",
    [
        (drt(1), {7: (1, -1, 7)}),
        (fusion("ising"), {2: (1, -1, 2)}),
        (fusion("fib"), {}),
        (fusion("c3"), {3: (1, -1, 3)}),
        (conference(1), {5: (1, -1, 5)}),
        (fusion("reps3"), {2: (1, -1, 2), 3: (1, -1, 3)}),
        (fusion("psu5l2"), {}),  # one cubic component
    ],
)
def test_assemble_matches_product_over_factorization(t, deltas):
    data = maximal_order(t)
    assert sorted(deltas) == data.bad_primes
    exceptional = {
        p: LocalRationalFunction(p, delta, (1,)) * maximal_local_factor(data.rings, p) for p, delta in deltas.items()
    }
    series = assemble_global(data.rings, data.bad_primes, exceptional, 3000)
    assert series.counts == _product_over_factorization(data.rings, exceptional, 3000)


def test_expand_geometric_square():
    f = LocalRationalFunction(7, (1,), (1, -2, 1))
    assert expand(f, 4) == [1, 2, 3, 4, 5]


def test_expand_v1_at_7():
    assert expand(theorem_local_factor("v1", 7), 3) == [1, 1, 8, 15]


def test_expand_v3_at_3():
    assert expand(theorem_local_factor("v3", 3), 4) == [1, 1, 4, 13, 22]


def test_theorem_factor_coefficients():
    f = theorem_local_factor("v3", 3)
    assert f.num[8] == 81
    assert f.num[0] == 1
    assert theorem_local_factor("v1", 5).num == (1, -1, 5)


def test_assemble_fib_is_dedekind_zeta():
    t = fusion("fib")
    data = maximal_order(t)
    series = assemble_global(data.rings, data.bad_primes, {}, 40)
    oracle = count_ideals(t.lam, 40)
    assert series.counts == oracle.counts


def test_assemble_reps3_formula():
    # (2^{1-2s} - 2^{-s} + 1)(3^{1-2s} - 3^{-s} + 1) zeta^3
    t = fusion("reps3")
    data = maximal_order(t)
    exceptional = {}
    for p in (2, 3):
        base = maximal_local_factor(data.rings, p)
        exceptional[p] = LocalRationalFunction(p, (1, -1, p), (1,)) * base
    series = assemble_global(data.rings, data.bad_primes, exceptional, 36)
    oracle = count_ideals(t.lam, 36)
    assert series.counts == oracle.counts


def test_assemble_rank_one_all_ones():
    series = assemble_global([(0, 1)], [], {}, 30)
    assert series.counts == (1,) * 30


def test_assemble_missing_bad_prime():
    t = fusion("c2")
    data = maximal_order(t)
    with pytest.raises(MissingBadPrime):
        assemble_global(data.rings, data.bad_primes, {}, 10)
    # raised before any local factor is built
    with pytest.raises(MissingBadPrime):
        assemble_global([(-2, 0, 0, 1)], [2, 3], {2: LocalRationalFunction(2, (1,), (1, -1))}, 100)


@pytest.mark.parametrize("counts", [(1,), (1, -2, 0, -7), (1, 2**64 + 1, -(2**70), 3)])
def test_series_prints_one_line_per_coefficient(counts):
    series = IdealCountSeries(len(counts), counts)
    assert str(series) == "\n".join(f"{n}\t{a}" for n, a in enumerate(counts, start=1))


def test_series_index_outside_bound():
    series = IdealCountSeries(3, (1, 2, 3))
    assert str(series) == "1\t1\n2\t2\n3\t3"
    assert [series.a(n) for n in (1, 2, 3)] == [1, 2, 3]
    for n in (0, -1, 4):
        with pytest.raises(IndexError, match=rf"a\({n}\) is outside 1\.\.3"):
            series.a(n)


def test_infer_drt1_at_7():
    # frozen oracle values a_{7^k} = 1 + (k-1)*7, confirmed by the
    # enumeration oracle through k = 3 (full depth 5 is the same family rule)
    counts = [1, 1, 8, 15, 22, 29]
    base = LocalRationalFunction(7, (1,), (1, -2, 1))
    assert infer_local_polynomial(counts, base, 5) == (1, -1, 7)


def test_infer_good_prime_trivial():
    base = maximal_local_factor((GOLDEN_RING,), 11)
    counts = expand(base, 5)
    assert infer_local_polynomial(counts, base, 0) == (1,)


def test_infer_ising_from_real_oracle():
    t = fusion("ising")
    data = maximal_order(t)
    counts = count_ideals_at_prime(t.lam, 2, 5)
    base = maximal_local_factor(data.rings, 2)
    assert infer_local_polynomial(counts, base, data.degree_bound(2)) == (1, -1, 2)


def test_infer_rejects_coefficient_above_degree_bound():
    # drt(1)'s counts at 7 are 1 + (k-1)*7, quotient 1 - t + 7t^2; one extra
    # ideal at 7^7 leaves 1*t^7 in the quotient, above the bound 5
    base = LocalRationalFunction(7, (1,), (1, -2, 1))
    counts = [1, 1, 8, 15, 22, 29, 36, 43]
    assert infer_local_polynomial(counts, base, 5) == (1, -1, 7)
    with pytest.raises(DegreeBoundExceeded, match=r"delta_7 has 1\*t\^7, above its degree bound 5"):
        infer_local_polynomial(counts[:-1] + [44], base, 5)
    # so does a bound below the true degree, at the first offending term
    with pytest.raises(DegreeBoundExceeded, match=r"delta_7 has 7\*t\^2, above its degree bound 1"):
        infer_local_polynomial(counts, base, 1)


def test_infer_rejects_counts_short_of_the_bound():
    base = LocalRationalFunction(7, (1,), (1, -2, 1))
    with pytest.raises(InputError, match="degree bound 5"):
        infer_local_polynomial([1, 1, 8, 15], base, 5)


def test_local_function_printing():
    f = theorem_local_factor("v1", 7)
    assert str(f) == "(1 - t + 7*t^2) / (1 - 2*t + t^2) @ p=7"
    s = theorem_local_factor("v1", None)
    assert str(s) == "(1 - t + p*t^2) / (1 - 2*t + t^2) @ p=symbolic"


def test_local_function_reduction():
    f = LocalRationalFunction(3, (1, -1), (1, -2, 1))  # (1-t)/(1-t)^2
    r = f.reduced()
    assert r.num == (1,) and r.den == (1, -1)
    assert f.equals(LocalRationalFunction(3, (1,), (1, -1)))


def test_expand_convolution_property():
    a = maximal_local_factor((GOLDEN_RING,), 11)
    b = theorem_local_factor("v1", 11)
    ab = a * b
    ea, eb, eab = expand(a, 6), expand(b, 6), expand(ab, 6)
    for k in range(7):
        assert eab[k] == sum(ea[i] * eb[k - i] for i in range(k + 1))
