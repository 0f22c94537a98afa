"""The integer exact kernels against references computed another way:
exact.discriminant against the Sylvester resultant in degrees 1 to 9,
the closed forms in degrees 2 and 3 and the product of squared root
differences; its Bareiss determinant against the Fraction elimination
``fmat_det``; and exact division in Z[x] (``polys.pdiv_exact``) against
the products it undoes."""

from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablezeta.algebra import action_matrix
from tablezeta.errors import InputError
from tablezeta.exact import bareiss_det, charpoly, discriminant
from tablezeta.polys import padd, pdeg, pdiv_exact, pmul, pnorm

from references import fmat_det, group_table, squarefree_part, sylvester_discriminant


def closed_form_discriminant(f):
    "Discriminant of the monic x^2 + b x + c or x^3 + a x^2 + b x + c, ascending coefficients."
    if len(f) == 3:
        c, b, _ = f
        return b * b - 4 * c
    c, b, a, _ = f
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


coefficients = st.integers(min_value=-30, max_value=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=9))
@example([-1, -1])  # x^2 - x - 1, disc 5
@example([1, -1, -2])  # psu5l2's cubic, disc 49
@example([2, 0, 0, 0])  # x^4 + 2, disc 2048
def test_discriminant_matches_sylvester(low):
    f = (*low, 1)
    assert discriminant(f) == sylvester_discriminant(f)
    if len(f) in (3, 4):
        assert discriminant(f) == closed_form_discriminant(f)


@settings(max_examples=100, deadline=None)
@given(coefficients, st.lists(coefficients, max_size=7))
def test_discriminant_of_a_square_factor_is_zero(root, low):
    # (x - root)^2 g for a monic g of degree 0 .. 7: degree 2 .. 9, D = 0
    f = pmul(pmul((-root, 1), (-root, 1)), (*low, 1))
    assert discriminant(f) == sylvester_discriminant(f) == 0
    if len(f) in (3, 4):
        assert closed_form_discriminant(f) == 0


@pytest.mark.parametrize("f, d", [((1,), 1), ((5, 1), 1), ((1, 0, 1), -4), ((-2, 0, 0, 1), -108), ((0, -1, 0, 1), 4)])
def test_discriminant_small_cases(f, d):
    assert discriminant(f) == d


@pytest.mark.parametrize("f", [(), (1, 2), (0, 0), (1, 0, 3), (1, 1, 0)])
def test_discriminant_refuses_a_polynomial_that_is_not_monic(f):
    with pytest.raises(InputError, match="monic"):
        discriminant(f)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=9))
def test_discriminant_is_the_product_of_squared_root_differences(roots):
    # roots drawn from nine values, so degrees 1 .. 9 with repeated roots often
    f = reduce(pmul, [(-r, 1) for r in roots])
    want = 1
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            want *= (a - b) ** 2
    assert discriminant(f) == sylvester_discriminant(f) == want


@pytest.mark.parametrize("step", [1, 2, 3])
def test_discriminant_of_a_degree_nine_characteristic_polynomial(step):
    # chi of b_1 + 2 b_2 + ... + 8 b_8 (step 1, D = 0) and of
    # b_1 + s b_2 + ... + s^7 b_8 (s = 2, 3, D != 0) in Z[C3 x C3]
    lam = group_table(9, lambda i, j: 3 * ((i // 3 + j // 3) % 3) + (i + j) % 3)
    theta = (0, *range(1, 9)) if step == 1 else (0, *(step**k for k in range(8)))
    chi = charpoly(action_matrix(lam, theta))
    assert pdeg(chi) == 9
    assert discriminant(chi) == sylvester_discriminant(chi)
    assert (discriminant(chi) == 0) == (step == 1)


def square_matrices(n):
    row = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 30]), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(square_matrices))
def test_bareiss_det_matches_fraction_elimination(rows):
    # zeros are frequent, so pivots need row swaps and some matrices are singular
    assert bareiss_det(rows) == fmat_det(rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=6), st.lists(coefficients, min_size=1, max_size=5))
@example([1, 2], [3])  # a constant divisor other than 1
@example([0], [1, 1])  # a zero dividend
def test_pdiv_exact_returns_the_quotient(a, b):
    if pdeg(b) < 0:
        b = (*b, 1)
    assert pdiv_exact(pmul(a, b), b) == pnorm(a)


@settings(max_examples=200, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=5), st.lists(coefficients, min_size=2, max_size=5))
def test_pdiv_exact_refuses_a_remainder(a, b):
    b = (*b[:-1], b[-1] or 1)
    # a b + 1: the remainder 1 has degree below deg b >= 1
    with pytest.raises(ArithmeticError) as err:
        pdiv_exact(padd(pmul(a, b), (1,)), b)
    assert not isinstance(err.value, ZeroDivisionError)


@pytest.mark.parametrize(
    "a, b",
    [
        ((1, 1), (0, 2)),  # (1 + x) / 2x: non-integral quotient
        ((2, 3), (2, 2)),  # (2 + 3x) / (2 + 2x): leading quotient 3/2
        ((1, 0, 1), (0, 1)),  # remainder 1
        ((1,), (0, 1)),  # a nonzero constant by x
    ],
)
def test_pdiv_exact_refuses_an_inexact_division(a, b):
    with pytest.raises(ArithmeticError) as err:
        pdiv_exact(a, b)
    assert not isinstance(err.value, ZeroDivisionError)


@pytest.mark.parametrize("b", [(0,), (0, 0)])
def test_pdiv_exact_refuses_a_zero_divisor(b):
    with pytest.raises(ZeroDivisionError):
        pdiv_exact((1, 2), b)


def test_squarefree_part_divides_in_z():
    # (x - 1)^2 (x + 2)^3 (x^2 + 1): the radical divides out in Z[x]
    f = reduce(pmul, [(-1, 1), (-1, 1), (2, 1), (2, 1), (2, 1), (1, 0, 1)])
    assert squarefree_part(f) == reduce(pmul, [(-1, 1), (2, 1), (1, 0, 1)])
