"""Integer polynomials in a formal prime parameter.

Used by the symbolic mode of the local genus calculus: measures and
lattice-point counts there are polynomials in p, and every division that
occurs (by powers of p and of p-1) must be exact.
"""

from fractions import Fraction
from math import gcd

from .polys import padd, pdiv_exact, peval, pmul, to_int_poly


class PPoly:
    """Dense integer-coefficient polynomial in the symbol ``p``."""

    __slots__ = ("c",)

    def __init__(self, coeffs=(0,)):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @staticmethod
    def var():
        return PPoly((0, 1))

    @staticmethod
    def power(e):
        return PPoly((0,) * e + (1,))

    def degree(self):
        return len(self.c) - 1

    def is_zero(self):
        return self.c == (0,)

    def __hash__(self):
        return hash(self.c)

    def __eq__(self, other):
        other = _lift(other)
        return other is not None and self.c == other.c

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return PPoly(padd(self.c, other.c))

    __radd__ = __add__

    def __neg__(self):
        return PPoly(tuple(-x for x in self.c))

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return PPoly(pmul(self.c, other.c))

    __rmul__ = __mul__

    def __call__(self, value):
        return peval(self.c, value)

    def divide_exact(self, other):
        """Exact division in Z[p]: ArithmeticError on a remainder or a
        non-integral quotient, ZeroDivisionError on a zero divisor."""
        return PPoly(to_int_poly(pdiv_exact(self.c, _lift(other).c)))

    def content(self):
        g = 0
        for x in self.c:
            g = gcd(g, x)
        return g if g else 1

    def __repr__(self):
        return f"PPoly({self.c})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in range(len(self.c) - 1, -1, -1):
            a = self.c[e]
            if a == 0:
                continue
            if e == 0:
                term = str(abs(a))
            else:
                head = "" if abs(a) == 1 else f"{abs(a)}*"
                term = f"{head}p" + (f"^{e}" if e > 1 else "")
            if not parts:
                parts.append(("-" if a < 0 else "") + term)
            else:
                parts.append(("- " if a < 0 else "+ ") + term)
        return " ".join(parts)


def _lift(x):
    if isinstance(x, PPoly):
        return x
    if isinstance(x, int):
        return PPoly((x,))
    return None


P = PPoly.var()
PM1 = PPoly((-1, 1))  # p - 1


class PFrac:
    """Quotient of PPolys.  Denominators only ever accumulate factors
    p^a * (p-1)^b * integer, so reduction is a few exact divisions."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PPoly((1,))):
        self.num = _lift(num)
        self.den = _lift(den)
        if self.den.is_zero():
            raise ZeroDivisionError
        self._reduce()

    def _reduce(self):
        num, den = self.num, self.den
        if num.is_zero():
            self.num, self.den = PPoly(0), PPoly(1)
            return
        # strip powers of p
        while len(num.c) > 1 and num.c[0] == 0 and len(den.c) > 1 and den.c[0] == 0:
            num = PPoly(num.c[1:])
            den = PPoly(den.c[1:])
        # strip factors of (p-1)
        while num(1) == 0 and den(1) == 0:
            num = num.divide_exact(PM1)
            den = den.divide_exact(PM1)
        g = gcd(num.content(), den.content())
        if den.c[-1] < 0:
            g = -g
        if g != 1:
            num = PPoly(tuple(x // g for x in num.c))
            den = PPoly(tuple(x // g for x in den.c))
        self.num, self.den = num, den

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        other = _lift_frac(other)
        return other is not None and (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num.c, self.den.c))

    def __add__(self, other):
        other = _lift_frac(other)
        if other is None:
            return NotImplemented
        return PFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PFrac(-self.num, self.den)

    def __sub__(self, other):
        other = _lift_frac(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _lift_frac(other) - self

    def __mul__(self, other):
        other = _lift_frac(other)
        if other is None:
            return NotImplemented
        return PFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        return PFrac(self.den, self.num)

    def as_poly(self):
        "Exact conversion back to PPoly; raises if the denominator survives."
        return self.num.divide_exact(self.den)

    def __call__(self, value):
        return Fraction(self.num(value), self.den(value))

    def __repr__(self):
        return f"PFrac({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == PPoly(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _lift_frac(x):
    if isinstance(x, PFrac):
        return x
    if isinstance(x, (int, PPoly)):
        return PFrac(x)
    return None
