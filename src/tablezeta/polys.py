"""Univariate polynomial arithmetic over Q, factorization up to degree 4,
Sturm-based real root isolation, exact algebraic numbers, and arithmetic in
quotient fields Q[x]/(f).

Polynomials are tuples of coefficients in ascending order.  Integer
polynomials stay integer; anything that needs division goes through
Fraction and is checked back to Z where integrality is promised.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

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


def psub(a, b):
    return padd(a, tuple(-x for x in b))


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnorm(tuple(out))


def pscale(a, s):
    return pnorm(tuple(x * s for x in a))


def peval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def pdivmod(a, b):
    "Division with remainder over Q."
    a = [Fraction(x) for x in pnorm(a)]
    b = [Fraction(x) for x in pnorm(b)]
    if b == [Fraction(0)]:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(x != 0 for x in a):
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        q[shift] = f
        for i, bx in enumerate(b):
            a[shift + i] -= f * bx
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return pnorm(tuple(q)), pnorm(tuple(a))


def pdiv_exact(a, b):
    q, r = pdivmod(a, b)
    if pdeg(r) >= 0 and any(x != 0 for x in r):
        raise ArithmeticError("inexact polynomial division")
    return q


def to_int_poly(a):
    out = []
    for x in a:
        f = Fraction(x)
        if f.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {f}")
        out.append(int(f))
    return pnorm(tuple(out))


def derivative(a):
    return pnorm(tuple(i * a[i] for i in range(1, len(a)))) if len(a) > 1 else (0,)


def monic(a):
    a = pnorm(a)
    lead = Fraction(a[-1])
    return tuple(Fraction(x) / lead for x in a)


def pgcd(a, b):
    "Monic gcd over Q, returned as a primitive integer polynomial."
    a, b = pnorm(a), pnorm(b)
    if pdeg(a) < 0:
        return primitive(to_int_from_monic(monic(b))) if pdeg(b) >= 0 else (0,)
    while pdeg(b) >= 0 and any(x != 0 for x in b):
        _, r = pdivmod(a, b)
        a, b = b, r
        if pdeg(b) < 0 or all(x == 0 for x in b):
            break
    return primitive(to_int_from_monic(monic(a)))


def to_int_from_monic(a):
    "Clear denominators of a rational polynomial."
    denom = reduce(lambda acc, x: acc * Fraction(x).denominator // gcd(acc, Fraction(x).denominator), a, 1)
    return tuple(int(Fraction(x) * denom) for x in a)


def primitive(a):
    g = 0
    for x in a:
        g = gcd(g, x)
    if g == 0:
        return pnorm(a)
    if a[-1] < 0:
        g = -g
    return pnorm(tuple(x // g for x in a))


def squarefree_part(a):
    "Radical of an integer polynomial (monic in, monic out)."
    g = pgcd(a, derivative(a))
    q = pdiv_exact(a, g)
    return to_int_poly(monic(q))


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
    polynomial of degree <= 4.  Returns monic irreducible integer factors,
    sorted by (degree, coefficients)."""
    a = to_int_poly(a)
    if a[-1] != 1:
        raise ValueError("monic polynomial required")
    if pdeg(a) > 4:
        raise DegreeTooLarge(f"factorization implemented for degree <= 4, got {pdeg(a)}")
    factors = []
    rest = a
    for r in integer_roots(a):
        # exact: the roots are distinct, so r is still a root of rest
        lin = (-r, 1)
        rest = to_int_poly(pdiv_exact(rest, lin))
        factors.append(lin)
    d = pdeg(rest)
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


# --- Sturm sequences and real root isolation -------------------------------


def sturm_chain(a):
    a = tuple(Fraction(x) for x in pnorm(a))
    chain = [a, tuple(Fraction(x) for x in derivative(a))]
    while pdeg(chain[-1]) > 0:
        _, r = pdivmod(chain[-2], chain[-1])
        if pdeg(r) < 0 or all(x == 0 for x in r):
            break
        chain.append(tuple(-x for x in r))
    return chain


def _sign_changes(chain, x):
    signs = []
    for f in chain:
        v = peval(f, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_real_roots(a, lo, hi, chain=None):
    "Number of distinct real roots of a in the half-open interval (lo, hi]."
    chain = chain or sturm_chain(a)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_bound(a):
    a = monic(a)
    return 1 + max((abs(Fraction(x)) for x in a[:-1]), default=Fraction(0))


def isolate_largest_real_root(a):
    """Isolating interval (lo, hi] for the largest real root of a squarefree
    integer polynomial with at least one real root."""
    chain = sturm_chain(a)
    b = cauchy_bound(a)
    lo, hi = -b, b
    total = count_real_roots(a, lo, hi, chain)
    if total == 0:
        raise ArithmeticError("no real root")
    while count_real_roots(a, lo, hi, chain) > 1:
        mid = (lo + hi) / 2
        if count_real_roots(a, mid, hi, chain) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class AlgebraicNumber:
    """Exact real algebraic number: monic irreducible integer minimal
    polynomial plus an isolating interval (lo, hi] holding exactly one of
    its real roots.  Rational numbers carry a degenerate interval."""

    minpoly: tuple
    lo: Fraction
    hi: Fraction

    @staticmethod
    def from_rational(q):
        q = Fraction(q)
        mp = to_int_from_monic((-q, 1))
        return AlgebraicNumber(tuple(mp), q, q)

    @property
    def is_rational(self):
        return pdeg(self.minpoly) == 1

    def rational_value(self):
        if not self.is_rational:
            raise ValueError("irrational algebraic number")
        return Fraction(-self.minpoly[0], self.minpoly[1])

    def refined(self, width):
        "Return an equal number with interval width <= width."
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        chain = sturm_chain(self.minpoly)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if peval(tuple(Fraction(x) for x in self.minpoly), mid) == 0:
                lo = hi = mid
                break
            if count_real_roots(self.minpoly, mid, hi, chain) >= 1:
                lo = mid
            else:
                hi = mid
        return AlgebraicNumber(self.minpoly, lo, hi)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.rational_value() == other
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        if self.minpoly != other.minpoly:
            return False
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return False
        # roots of the shared minimal polynomial are equal iff one lies in
        # the overlap of both isolating intervals
        if lo == hi:
            return peval(self.minpoly, lo) == 0
        return count_real_roots(self.minpoly, lo, hi) >= 1

    def __hash__(self):
        return hash(self.minpoly)

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraicNumber.from_rational(other)
        if self == other:
            return False
        a, b = self, other
        eps = Fraction(1, 2)
        while not (a.hi < b.lo or b.hi < a.lo):
            a = a.refined(eps)
            b = b.refined(eps)
            eps /= 2
        return a.hi < b.lo

    def __repr__(self):
        if self.is_rational:
            return f"AlgebraicNumber({self.rational_value()})"
        return f"AlgebraicNumber({self.minpoly}, ({self.lo}, {self.hi}])"


def largest_real_root(factors):
    """(index, root) of the largest real root among the roots of the given
    irreducible integer polynomials, the first factor winning a tie;
    (None, None) when none of them has a real root."""
    best = best_i = None
    for i, f in enumerate(factors):
        if pdeg(f) == 1:
            cand = AlgebraicNumber.from_rational(Fraction(-f[0], f[1]))
        else:
            b = cauchy_bound(f)
            if count_real_roots(f, -b, b) == 0:
                continue
            lo, hi = isolate_largest_real_root(f)
            cand = AlgebraicNumber(tuple(f), Fraction(lo), Fraction(hi))
        if best is None or best < cand:
            best, best_i = cand, i
    return best_i, best


# --- quotient field arithmetic ---------------------------------------------


class FieldElt:
    """Element of Q[x]/(f) for a monic irreducible integer polynomial f."""

    __slots__ = ("f", "c")

    def __init__(self, f, coeffs):
        self.f = pnorm(tuple(f))
        d = pdeg(self.f)
        c = [Fraction(x) for x in coeffs]
        if len(c) > d:
            _, r = pdivmod(tuple(c), self.f)
            c = list(r)
        c += [Fraction(0)] * (d - len(c))
        self.c = tuple(c[:d])

    @staticmethod
    def constant(f, q):
        return FieldElt(f, (Fraction(q),))

    @staticmethod
    def generator(f):
        return FieldElt(f, (0, 1))

    def is_zero(self):
        return all(x == 0 for x in self.c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldElt.constant(self.f, other)
        return self.f == other.f and self.c == other.c

    def __hash__(self):
        return hash((self.f, self.c))

    def __add__(self, other):
        other = self._lift(other)
        return FieldElt(self.f, padd(self.c, other.c))

    __radd__ = __add__

    def __neg__(self):
        return FieldElt(self.f, tuple(-x for x in self.c))

    def __sub__(self, other):
        other = self._lift(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return FieldElt(self.f, pmul(self.c, other.c))

    __rmul__ = __mul__

    def _lift(self, other):
        if isinstance(other, FieldElt):
            if other.f != self.f:
                raise ValueError("mixed fields")
            return other
        return FieldElt.constant(self.f, other)

    def inv(self):
        "Inverse via the extended Euclidean algorithm in Q[x]."
        if self.is_zero():
            raise ZeroDivisionError
        a, b = self.f, pnorm(self.c)
        s0, s1 = (0,), (1,)
        while pdeg(b) > 0:
            q, r = pdivmod(a, b)
            a, b = b, r
            s0, s1 = s1, psub(s0, pmul(q, s1))
            if pdeg(b) < 0 or all(x == 0 for x in b):
                raise ZeroDivisionError("zero divisor")
        scale = Fraction(1) / Fraction(b[0])
        return FieldElt(self.f, pscale(s1, scale))

    def __truediv__(self, other):
        other = self._lift(other)
        return self * other.inv()

    def trace(self):
        "Field trace to Q: trace of the multiplication-by-self matrix."
        d = pdeg(self.f)
        total = Fraction(0)
        col = self.c
        basis = (0, 1)
        for i in range(d):
            total += col[i] if i < len(col) else 0
            if i < d - 1:
                col = FieldElt(self.f, pmul(col, basis)).c
        return total

    def is_rational(self):
        return all(x == 0 for x in self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return self.c[0]

    def __repr__(self):
        return f"FieldElt({self.f}, {self.c})"
