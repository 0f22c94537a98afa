"""Integer polynomials in a formal prime parameter.

Used by the symbolic mode of the local genus calculus: measures and
lattice-point counts there are polynomials in p.  A genus sum is
accumulated as a PPoly over one denominator p^e (p-1)^c, and the one
division it needs, by that denominator, must be exact.
"""

from .polys import padd, pdiv_exact, peval, pmul


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

    def __pow__(self, e):
        if e < 0:
            raise ValueError(f"PPoly power needs an exponent >= 0, got {e}")
        out = PPoly(1)
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, value):
        return peval(self.c, value)

    def divide_exact(self, other):
        """Exact division in Z[p]: ArithmeticError on a remainder or a
        non-integral quotient, ZeroDivisionError on a zero divisor."""
        return PPoly(pdiv_exact(self.c, _lift(other).c))

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


PM1 = PPoly((-1, 1))  # p - 1
