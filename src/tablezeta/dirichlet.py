"""Formal Dirichlet series and local Euler factors.

A local factor is a quotient of polynomials in the formal variable
t = p^{-s}; nothing is ever evaluated numerically in s.  Coefficients are
integers for a concrete prime, or integer polynomials in the symbol p for
the symbolic mode of the genus calculus.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeBoundExceeded, FunctionalEquationFailed, InputError, MissingBadPrime, NonIntegralQuotient
from .exact import discriminant, is_prime, primes_up_to
from .ideals import IdealCountSeries
from .modp import factor, root_count
from .polys import pdeg, peval, pmul, pnorm


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
        if self.den[0] != 1:
            raise InputError("denominator must have constant term 1")

    def __mul__(self, other):
        if isinstance(other, LocalRationalFunction):
            if self.p != other.p:
                raise InputError("mixed primes")
            return LocalRationalFunction(self.p, pmul(self.num, other.num), pmul(self.den, other.den))
        return LocalRationalFunction(self.p, pmul(self.num, pnorm(tuple(other))), self.den)

    def reduced(self):
        "Cancel common powers of (1 - t) and normalize; exact."
        num, den = self.num, self.den
        while pdeg(num) > 0 or pdeg(den) > 0:
            if peval(num, 1) == 0 and peval(den, 1) == 0 and pdeg(num) >= 0:
                num = _divide_by_one_minus_t(num)
                den = _divide_by_one_minus_t(den)
            else:
                break
        return LocalRationalFunction(self.p, num, den)

    def equals(self, other):
        if self.p != other.p:
            return False
        return pmul(self.num, other.den) == pmul(other.num, self.den)

    def __str__(self):
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)}) @ p={self.p if self.p is not None else 'symbolic'}"


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


def residue_degrees_mod_p(poly, p):
    """Ascending degrees of the distinct irreducible factors of an integer
    polynomial f that is monic mod the prime p, read off its reduction
    fbar mod p (``modp.factor``; a quadratic has [1, 1], [1] or [2] by its
    number of distinct roots, ``_distinct_roots``): the residue degrees of
    the primes above p in Z[x]/(f) when f is monic and that ring is
    maximal at p.  A p that is not prime or an f that is not monic mod p
    raises InputError."""
    if not is_prime(p):
        raise InputError(f"residue degrees need a prime, got {p}")
    return _residue_degrees_mod(poly, p)


def _residue_degrees_mod(poly, p, disc=None, symbols=None):
    """residue_degrees_mod_p for a p already known to be prime.  disc, if
    given, is the discriminant of poly, a monic integer polynomial, so that
    a caller that asks at many primes computes it once, and ``symbols`` is
    then a dict that ``_distinct_roots`` keeps its residue symbols in."""
    coeffs = [x % p for x in poly]
    if len(coeffs) < 2:
        return []
    if coeffs[-1] != 1:
        raise InputError(f"{tuple(poly)} is not monic mod {p}")
    if len(coeffs) <= 3:  # one root for a linear f; two roots, a double one or none for a quadratic
        if disc is None:
            disc, symbols = discriminant(coeffs), None
        return [[2], [1], [1, 1]][_distinct_roots(coeffs, p, disc, symbols)]
    return [len(g) - 1 for g in factor(coeffs, p)]


def _distinct_roots(poly, p, disc, symbols=None):
    """The number of distinct roots mod the prime p of poly, monic mod p
    and of degree >= 1, of discriminant disc (mod p or not): for a
    quadratic at an odd p prime to disc Euler's criterion
    (``_residue_symbol``), and else ``modp.root_count``.  ``symbols``, if
    given, is a dict of the criterion by (disc, p mod |disc|), for a disc
    that is poly's discriminant over Z, so that the criterion is taken
    once per residue class (``assemble_global`` gives the lemma)."""
    if len(poly) == 3 and p > 2 and disc % p:
        if symbols is None:
            return _residue_symbol(disc, p)
        key = (disc, p % abs(disc))
        if key not in symbols:
            symbols[key] = _residue_symbol(disc, p)
        return symbols[key]
    return root_count(poly, p)


def _residue_symbol(disc, p):
    """The number of roots mod an odd prime p, prime to disc, of a monic
    quadratic of discriminant disc: 2 if disc^((p-1)/2) = 1 mod p (Euler's
    criterion), else 0."""
    return 2 if pow(disc, (p - 1) // 2, p) == 1 else 0


def _root_counts(ring, disc, primes, symbols):
    """The number of distinct roots of the monic ring, of discriminant
    disc, mod each of ``primes``: none for a constant, one for a linear
    ring, else ``_distinct_roots``, with ``symbols`` as there."""
    deg = len(ring) - 1
    if deg < 2:
        return [deg] * len(primes)
    return [_distinct_roots(ring, p, disc, symbols) for p in primes]


def _dedekind_den(degrees):
    "prod (1 - t^deg) over the residue degrees."
    den = (1,)
    for deg in degrees:
        den = pmul(den, (1,) + (0,) * (deg - 1) + (-1,))
    return den


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
    """Local factor of the maximal order: (1 - t^f)^{-1} over the residue
    degrees f of the primes above the prime p in every component ring,
    given by its defining polynomial, which must be monic (InputError)."""
    if not is_prime(p):
        raise InputError(f"residue degrees need a prime, got {p}")
    return LocalRationalFunction(p, (1,), _dedekind_den(_residue_degrees(rings, p, list(map(discriminant, rings)))))


def assemble_global(rings, bad_primes, exceptional, bound) -> IdealCountSeries:
    """Coefficients a_1..a_N of the Euler product: good primes get the
    product of the Dedekind factors of the component rings, given by their
    defining polynomials, bad primes the supplied full local factor.
    ``IdealCountSeries.from_towers`` multiplies them together in one sweep:
    it takes each tower [a_1, a_p, ..., a_{p^kmax}] at p^2 <= N, and at
    p^2 > N only a_p, which it writes once, over all multiples of p.

    A prime in ``exceptional`` takes its factor first, whether p^2 <= N or
    not (at p^2 > N its t-coefficient).  A good prime's factor prod (1 -
    t^deg)^{-1} depends only on the residue degrees of the primes above p
    (residue_degrees_mod_p), each pattern expanded once per depth at p^2 <=
    N.  At p^2 > N a_p is the number of roots mod p summed over the rings,
    taken in one pass per ring (``_root_counts``).  Each discriminant is
    computed once, here; a ring that is not monic raises InputError.

    A quadratic ring's roots at an odd p prime to its discriminant D are
    Euler's criterion, the Kronecker symbol (D/p) + 1, and for D = 0 or 1
    mod 4, as the discriminant of every monic integer quadratic is,
    p -> (D/p) is a character mod |D| (Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, 1.4).  So the criterion is taken once
    per residue class of p mod |D| (``_distinct_roots``), at every depth."""
    for p in bad_primes:
        if p not in exceptional:
            raise MissingBadPrime(f"no exceptional local factor supplied for p = {p}")
    discs = [discriminant(ring) for ring in rings]
    primes = primes_up_to(bound)
    symbols = {}  # (D, p mod |D|) -> the roots of a quadratic of discriminant D mod p
    large = [p for p in primes if p * p > bound]
    a_p = [0] * len(large)
    for ring, disc in zip(rings, discs):
        a_p = [a + r for a, r in zip(a_p, _root_counts(ring, disc, large, symbols))]
    for i, p in enumerate(large):
        if p in exceptional:
            a_p[i] = expand(exceptional[p], 1)[1]
    good = {}  # (sorted residue degrees, kmax) -> [a_1, a_p, ..., a_{p^kmax}]

    def tower(p, kmax):
        if p in exceptional:
            return expand(exceptional[p], kmax)
        key = (_residue_degrees(rings, p, discs, symbols), kmax)
        if key not in good:
            good[key] = expand(LocalRationalFunction(p, (1,), _dedekind_den(key[0])), kmax)
        return good[key]

    return IdealCountSeries.from_towers(bound, primes, tower, a_p)


def _residue_degrees(rings, p, discs, symbols=None):
    """Sorted residue degrees of the primes above the prime p in every ring,
    of discriminants discs; ``symbols`` as for ``_distinct_roots``."""
    return tuple(sorted(d for ring, disc in zip(rings, discs) for d in _residue_degrees_mod(ring, p, disc, symbols)))


def _quotient(oracle_counts, maximal_factor):
    "(sum a_{p^k} t^k) / maximal factor to t^kmax, for the counts a_1 .. a_{p^kmax}."
    kmax = len(oracle_counts) - 1
    base = expand(maximal_factor, kmax)
    if base[0] != 1:
        raise NonIntegralQuotient("maximal-order series must start at 1")
    return expand(LocalRationalFunction(maximal_factor.p, oracle_counts, base), kmax)


def infer_local_polynomial(oracle_counts, maximal_factor: LocalRationalFunction, degree_bound):
    """delta_p(t) = (sum a_{p^k} t^k) / maximal factor, by series division
    of the counts a_1, a_p, ..., a_{p^kmax}.  delta_p is a polynomial of
    degree at most degree_bound (MaximalOrderData.degree_bound), so with
    kmax >= degree_bound the quotient is exact; a nonzero coefficient above
    the bound would disprove it and raises DegreeBoundExceeded."""
    kmax = len(oracle_counts) - 1
    if kmax < degree_bound:
        raise InputError(f"counts to p^{kmax} cannot determine delta_p up to its degree bound {degree_bound}")
    q = _quotient(oracle_counts, maximal_factor)
    for k in range(degree_bound + 1, kmax + 1):
        if q[k]:
            raise DegreeBoundExceeded(f"delta_{maximal_factor.p} has {q[k]}*t^{k}, above its degree bound {degree_bound}")
    return pnorm(tuple(q[: degree_bound + 1]))


def complete_local_polynomial(oracle_counts, maximal_factor: LocalRationalFunction, ell):
    """delta_p at a prime where Lambda_p is Gorenstein, from the counts a_1,
    a_p, ..., a_{p^kmax} with kmax >= ell = v_p[Lambda_0 : Lambda]: the
    series quotient gives c_0 .. c_ell, and the functional equation
    c_(2 ell - k) = p^(ell - k) c_k gives c_(ell+1) .. c_(2 ell), so
    delta_p has degree 2 ell (pipeline.infer_exceptional_factors names the
    theorem).  Every quotient coefficient counted past ell must equal the
    completed one, 0 above 2 ell; one that does not raises
    FunctionalEquationFailed."""
    p, kmax = maximal_factor.p, len(oracle_counts) - 1
    if kmax < ell:
        raise InputError(f"counts to p^{kmax} cannot determine delta_p up to its middle degree {ell}")
    q = _quotient(oracle_counts, maximal_factor)
    delta = q[: ell + 1] + [p ** (ell - k) * q[k] for k in range(ell - 1, -1, -1)]
    for k in range(ell + 1, kmax + 1):
        want = delta[k] if k <= 2 * ell else 0
        if q[k] != want:
            raise FunctionalEquationFailed(
                f"delta_{p} has {q[k]}*t^{k} by the count to p^{kmax}, "
                f"but {want}*t^{k} by the functional equation from degree {ell}"
            )
    return pnorm(tuple(delta))
