"""Formal Dirichlet series and local Euler factors.

A local factor is a quotient of polynomials in the formal variable
t = p^{-s}; nothing is ever evaluated numerically in s.  Coefficients are
integers for a concrete prime, or integer polynomials in the symbol p for
the symbolic mode of the genus calculus.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, MissingBadPrime, NonIntegralQuotient, NotCertifiedMaximal, NotStabilized
from .exact import primes_up_to, valuation
from .polys import padd, pdeg, pmul, pnorm


@dataclass(frozen=True)
class DirichletSeries:
    bound: int
    coefficients: tuple  # a_1 .. a_N

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(x) for x in self.coefficients))
        if len(self.coefficients) != self.bound:
            raise InputError("coefficient list must have length N")
        if self.bound >= 1 and self.coefficients[0] != 1:
            raise InputError("a_1 must be 1")

    def a(self, n):
        return self.coefficients[n - 1]

    def __str__(self):
        return "\n".join(f"{n}\t{a}" for n, a in enumerate(self.coefficients, start=1))


@dataclass(frozen=True)
class LocalRationalFunction:
    """num(t)/den(t) at the prime p, with den(0) = 1.  p is None in the
    symbolic mode, where coefficients are polynomials in p."""

    p: object
    num: tuple
    den: tuple

    def __post_init__(self):
        object.__setattr__(self, "num", pnorm(tuple(self.num)))
        object.__setattr__(self, "den", pnorm(tuple(self.den)))
        if not _is_one(self.den[0]):
            raise InputError("denominator must have constant term 1")

    def expand(self, kmax):
        return expand(self, kmax)

    def __mul__(self, other):
        if isinstance(other, LocalRationalFunction):
            if self.p != other.p:
                raise InputError("mixed primes")
            return LocalRationalFunction(self.p, pmul(self.num, other.num), pmul(self.den, other.den))
        return LocalRationalFunction(self.p, pmul(self.num, pnorm(tuple(other))), self.den)

    def __add__(self, other):
        if not isinstance(other, LocalRationalFunction) or self.p != other.p:
            raise InputError("mixed primes")
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return LocalRationalFunction(self.p, num, pmul(self.den, other.den))

    def reduced(self):
        "Cancel common powers of (1 - t) and normalize; exact."
        num, den = self.num, self.den
        while pdeg(num) > 0 or pdeg(den) > 0:
            if _eval_at_one(num) == 0 and _eval_at_one(den) == 0 and not _is_zero_poly(num):
                num = _divide_by_one_minus_t(num)
                den = _divide_by_one_minus_t(den)
            else:
                break
        return LocalRationalFunction(self.p, num, den)

    def equals(self, other):
        if self.p != other.p:
            return False
        left = pmul(self.num, other.den)
        right = pmul(other.num, self.den)
        return _poly_eq(left, right)

    def __str__(self):
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)}) @ p={self.p if self.p is not None else 'symbolic'}"


def _is_one(x):
    return x == 1


def _is_zero_poly(c):
    return all(x == 0 for x in c)


def _eval_at_one(c):
    total = 0
    for x in c:
        total = total + x
    return total


def _poly_eq(a, b):
    a, b = pnorm(a), pnorm(b)
    if len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a, b))


def _divide_by_one_minus_t(c):
    "Exact division by (1 - t): synthetic, remainder must vanish."
    out = []
    acc = 0
    # c(t) = (1-t) q(t): q_k = sum_{j<=k} c_j
    for x in c[:-1]:
        acc = acc + x
        out.append(acc)
    if not (acc + c[-1] == 0):
        raise ArithmeticError("polynomial not divisible by (1 - t)")
    return pnorm(tuple(out))


def _poly_str(c):
    parts = []
    for e, x in enumerate(c):
        if x == 0:
            continue
        neg, mag = _sign_split(x)
        if e == 0:
            body = mag
        elif mag == "1":
            body = "t" + (f"^{e}" if e > 1 else "")
        else:
            body = f"{mag}*t" + (f"^{e}" if e > 1 else "")
        parts.append((neg, body))
    if not parts:
        return "0"
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _sign_split(x):
    "(is_negative, magnitude string); compound coefficients get parentheses."
    if isinstance(x, (int, Fraction)):
        return (x < 0, str(abs(x)))
    s = str(x)
    if " + " in s or " - " in s:
        return (False, f"({s})")
    if s.startswith("-"):
        return (True, s[1:])
    return (False, s)


def zeta_p(p):
    "(1 - t)^{-1}, the local factor of Z."
    return LocalRationalFunction(p, (1,), (1, -1))


def expand(f: LocalRationalFunction, kmax):
    "Power-series coefficients of num/den up to t^kmax (exact division)."
    num = list(f.num) + [0] * max(0, kmax + 1 - len(f.num))
    den = list(f.den)
    out = []
    for k in range(kmax + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc)
    return out


def factor_degrees_mod_p(poly, p):
    """Distinct irreducible factors of a monic integer polynomial mod p,
    as (degree, multiplicity) pairs; degree <= 3 supported.  Roots by
    exhaustive search over the residue field."""
    coeffs = [x % p for x in poly]
    deg = len(coeffs) - 1
    if deg > 3:
        raise InputError("modular factorization implemented for degree <= 3")
    out = []
    for r in range(p):
        mult = 0
        while len(coeffs) > 1:
            val = 0
            for c in reversed(coeffs):
                val = (val * r + c) % p
            if val != 0:
                break
            # synthetic division by (x - r), descending sweep
            rev = coeffs[::-1]
            q = []
            acc = 0
            for c in rev[:-1]:
                acc = (acc * r + c) % p
                q.append(acc)
            coeffs = q[::-1]
            mult += 1
        if mult:
            out.append((1, mult))
    rest = len(coeffs) - 1
    if rest > 0:
        out.append((rest, 1))  # no roots left: irreducible of degree 2 or 3
    return out


def dedekind_euler_factor(ring, p) -> LocalRationalFunction:
    """Euler factor of the Dedekind zeta function of the ring at p:
    product over the distinct irreducible factors of the defining
    polynomial mod p of (1 - t^deg)^{-1}."""
    if not ring.is_maximal_certified:
        raise NotCertifiedMaximal(f"ring {ring.defining_poly} is not certified maximal")
    den = (1,)
    for deg, _mult in factor_degrees_mod_p(ring.defining_poly, p):
        factor = [1] + [0] * (deg - 1) + [-1]
        den = pmul(den, tuple(factor))
    return LocalRationalFunction(p, (1,), den)


def theorem_local_factor(family: str, p) -> LocalRationalFunction:
    """Closed-form local factors for the rank-3 families at an odd prime
    with odd p-valuation of the order: 'v1' for valuation 1 and 'v3' for
    valuation 3.  Pass p=None for coefficients symbolic in p."""
    from .ppoly import PPoly

    label = p
    if p is None:
        p = PPoly.var()
    if family == "v1":
        num = (1, -1, p)
    elif family == "v3":
        p2 = p * p
        p3 = p2 * p
        num = (1, -1, p, p2 - p, 0, p3 - p2, p3, -p3, p3 * p)
    else:
        raise InputError("family must be 'v1' or 'v3'")
    return LocalRationalFunction(label, num, (1, -2, 1))


def maximal_local_factor(rings, p) -> LocalRationalFunction:
    "Local factor of the maximal order: product over the component rings."
    out = LocalRationalFunction(p, (1,), (1,))
    for ring in rings:
        out = out * dedekind_euler_factor(ring, p)
    return out


def assemble_global(rings, bad_primes, exceptional, bound) -> DirichletSeries:
    """Coefficients a_1..a_N of the Euler product: good primes get the
    product of the component Dedekind factors, bad primes the supplied
    full local factor.  Strictly multiplicative assembly."""
    for p in bad_primes:
        if p not in exceptional:
            raise MissingBadPrime(f"no exceptional local factor supplied for p = {p}")
    coeffs = [1] * (bound + 1)  # index by n, entry 0 unused
    for p in primes_up_to(bound):
        kmax = 0
        while p ** (kmax + 1) <= bound:
            kmax += 1
        local = exceptional.get(p) or maximal_local_factor(rings, p)
        a_pk = expand(local, kmax)
        for n in range(1, bound + 1):
            if n % p == 0:
                k = valuation(n, p)
                coeffs[n] *= a_pk[k]
    return DirichletSeries(bound, tuple(coeffs[1:]))


def infer_local_polynomial(oracle_counts, maximal_factor: LocalRationalFunction):
    """delta_p(t) = (sum a_{p^k} t^k) / maximal factor, by series division;
    accepted once >= 3 trailing zero coefficients are observed."""
    kmax = len(oracle_counts) - 1
    base = expand(maximal_factor, kmax)
    if base[0] != 1:
        raise NonIntegralQuotient("maximal-order series must start at 1")
    q = []
    for k in range(kmax + 1):
        acc = oracle_counts[k]
        for j in range(1, min(k, len(base) - 1) + 1):
            acc -= base[j] * q[k - j]
        q.append(acc)
    # locate the last nonzero
    last = max((i for i, x in enumerate(q) if x != 0), default=0)
    if kmax - last < 3:
        raise NotStabilized(q)
    return pnorm(tuple(q[: last + 1]))
