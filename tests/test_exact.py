"""exact.discriminant against references computed another way: the
Sylvester resultant in every degree, and the closed forms in degrees 2
and 3."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablezeta.errors import InputError
from tablezeta.exact import discriminant
from tablezeta.polys import pmul

from references import sylvester_discriminant


def closed_form_discriminant(f):
    "Discriminant of the monic x^2 + b x + c or x^3 + a x^2 + b x + c, ascending coefficients."
    if len(f) == 3:
        c, b, _ = f
        return b * b - 4 * c
    c, b, a, _ = f
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


coefficients = st.integers(min_value=-30, max_value=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=5))
@example([-1, -1])  # x^2 - x - 1, disc 5
@example([1, -1, -2])  # psu5l2's cubic, disc 49
@example([2, 0, 0, 0])  # x^4 + 2, disc 2048
def test_discriminant_matches_sylvester(low):
    f = (*low, 1)
    assert discriminant(f) == sylvester_discriminant(f)
    if len(f) in (3, 4):
        assert discriminant(f) == closed_form_discriminant(f)


@settings(max_examples=100, deadline=None)
@given(coefficients, st.lists(coefficients, max_size=3))
def test_discriminant_of_a_square_factor_is_zero(root, low):
    # (x - root)^2 g for a monic g of degree 0 .. 3: degree 2 .. 5, D = 0
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
