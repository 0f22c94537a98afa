"""Univariate polynomial arithmetic and factorization over Q up to
degree 4.

Polynomials are tuples of coefficients in ascending order.  Integer
polynomials stay integer: exact division (``pdiv_exact``) runs in Z[x]
and refuses a remainder or a non-integral quotient.
"""

from fractions import Fraction

from .errors import DegreeTooLarge


def pnorm(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(c):
    c = pnorm(c)
    return -1 if c == (0,) else len(c) - 1


def padd(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return pnorm(tuple(x + y for x, y in zip(a, b)))


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnorm(tuple(out))


def peval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def pdiv_exact(a, b):
    """The quotient q = a / b in Z[x] of integer polynomials, by long
    division in integers.  Each quotient coefficient is the exact quotient
    of a leading coefficient by b's, so a remainder or a non-integral
    quotient raises ArithmeticError; a zero b raises ZeroDivisionError."""
    a, b = list(pnorm(a)), pnorm(b)
    if b == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    n, lead = len(b) - 1, b[-1]
    q = [0] * max(len(a) - n, 1)
    for shift in range(len(a) - 1 - n, -1, -1):
        f, r = divmod(a[shift + n], lead)
        if r:
            raise ArithmeticError("non-integral polynomial quotient")
        if f:
            q[shift] = f
            for i in range(n + 1):
                a[shift + i] -= f * b[i]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return pnorm(tuple(q))


def to_int_poly(a):
    out = []
    for x in a:
        f = Fraction(x)
        if f.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {f}")
        out.append(int(f))
    return pnorm(tuple(out))


def integer_roots(a):
    "Roots in Z of a monic integer polynomial, each listed once."
    a = pnorm(a)
    if a[0] == 0:
        roots = {0}
        while a[0] == 0 and pdeg(a) > 0:
            a = a[1:]
    else:
        roots = set()
    c0 = abs(a[0])
    if c0 != 0:
        from .exact import divisors

        for d in divisors(c0):
            for r in (d, -d):
                if peval(a, r) == 0:
                    roots.add(r)
    return sorted(roots)


def factor_rational(a):
    """Complete factorization over Q of a monic, squarefree integer
    polynomial whose degree is at most 4 once its integer roots are
    divided out.  Returns monic irreducible integer factors, sorted by
    (degree, coefficients)."""
    a = to_int_poly(a)
    if a[-1] != 1:
        raise ValueError("monic polynomial required")
    factors = []
    rest = a
    for r in integer_roots(a):
        # exact: the roots are distinct, so r is still a root of rest
        lin = (-r, 1)
        rest = pdiv_exact(rest, lin)
        factors.append(lin)
    d = pdeg(rest)
    if d > 4:
        raise DegreeTooLarge(f"factorization implemented for degree <= 4 without integer roots, got {d}")
    if d == 0:
        pass
    elif d in (2, 3):
        # no rational roots remain, so degree 2 and 3 are irreducible
        factors.append(rest)
    elif d == 4:
        split = _factor_quartic_into_quadratics(rest)
        factors.extend(split if split else [rest])
    elif d == 1:
        factors.append(rest)
    return sorted(factors, key=lambda f: (pdeg(f), f))


def _factor_quartic_into_quadratics(a):
    "Try a = (x^2+b1*x+c1)(x^2+b2*x+c2) over Z; None if irreducible."
    from .exact import divisors

    e0, e1, e2, e3, _ = a
    for c1 in [d for d0 in divisors(e0) for d in (d0, -d0)] if e0 else [0]:
        if e0 and (c1 == 0 or e0 % c1 != 0):
            continue
        c2 = e0 // c1 if c1 else 0
        if c1 == 0 and e0 != 0:
            continue
        # b1 + b2 = e3 ; c1 + c2 + b1 b2 = e2 ; b1 c2 + b2 c1 = e1
        s = e3
        prod = e2 - c1 - c2
        # b1, b2 roots of t^2 - s t + prod
        disc = s * s - 4 * prod
        if disc < 0:
            continue
        r = _isqrt_exact(disc)
        if r is None:
            continue
        for b1 in {(s + r) // 2, (s - r) // 2}:
            if (s + r) % 2 != 0 and (s - r) % 2 != 0:
                continue
            b2 = s - b1
            if b1 * b2 != prod:
                continue
            if b1 * c2 + b2 * c1 == e1:
                f1, f2 = (c1, b1, 1), (c2, b2, 1)
                return sorted([f1, f2])
    return None


def _isqrt_exact(n):
    from math import isqrt

    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
