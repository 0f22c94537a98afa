"""Rational decomposition of QB for a commutative integral table algebra.

The pipeline is monogenic: take a primitive element theta from
``algebra.primitive_elements``, whose minimal polynomial mu is squarefree
of degree = rank, factor mu over Q, and read off

  * the primitive idempotents of QB, as CRT projectors in Q[theta],
  * the rings of integers of the simple components, each as the defining
    polynomial of a monogenic Z-basis (degree <= 2 by the discriminant
    rule; in degree 3 only the certified cubic is accepted),
  * a Z-basis of the maximal order Lambda_0, the index [Lambda_0 : ZB],
    the conductor, and the bad primes.

maximal_order runs this once, factoring mu and certifying its components
once, and returns all of it in one MaximalOrderData.  It computes in
integers: each idempotent and each row of Lambda_0 is an integer vector
over one denominator, and the index and the check that ZB lies in
Lambda_0 come from one Hermite normal form.  Fractions are made only for
the record's fields.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import TableAlgebra, check_ring, multiply, primitive_elements, unit_vectors
from .errors import MaximalityUncertified, NotMonogenic
from .exact import bareiss_det, discriminant, factorize, hnf, lattice_det, squarefree_kernel, valuation
from .polys import factor_rational, pdeg, pdiv_exact, pmul

CERTIFIED_CUBIC = (1, -1, -2, 1)  # x^3 - 2x^2 - x + 1, ring of integers of its field


def powers_of_generator(t: TableAlgebra, theta):
    "theta^0, theta^1, ..., theta^(rank-1) as vectors in basis B."
    vecs = [unit_vectors(t.rank)[0]]
    for _ in range(t.rank - 1):
        vecs.append(multiply(t.lam, theta, vecs[-1]))
    return vecs


def find_generator(t: TableAlgebra):
    """(theta, mu): the coefficient vector of the first primitive element
    theta of ``algebra.primitive_elements`` whose minimal polynomial mu has
    irreducible factors that all admit a certified maximal order, and mu.
    Falls back to the first primitive element when no candidate is fully
    certifiable (maximal_order will then refuse)."""
    return _generator(t)[:2]


def _generator(t: TableAlgebra):
    """(theta, mu, D, factors, rings) for find_generator's theta, after
    ``algebra.check_ring``: D = disc mu, the irreducible factors of mu and
    ``_ring_polynomial`` of each, or None in place of the rings for the
    fallback."""
    check_ring(t.lam)
    first = None
    for theta, mu, disc in primitive_elements(t.lam):
        factors = factor_rational(mu)
        try:
            return theta, mu, disc, factors, [_ring_polynomial(f) for f in factors]
        except MaximalityUncertified:
            first = first or (theta, mu, disc, factors, None)
    if first is not None:
        return first
    raise NotMonogenic("no candidate primitive element generates the algebra over Q")


def _ring_polynomial(f):
    """(R, omega) for an irreducible monic f of degree <= 3: Z[omega] is
    the ring of integers of Q[x]/(f), R is the defining polynomial of
    omega and omega = (a_0 + a_1 x) / s is given as (a_0, a_1, s).  In
    degree 1, and in degree 3 for the certified cubic, whose own ring of
    integers it is, that is (f, x).  In degree 2, with disc(f) = d0 s^2 for
    the squarefree kernel d0, omega is (s + b + 2x)/(2s) = (1 + sqrt(d0))/2,
    a root of x^2 - x + (1 - d0)/4, when d0 is 1 mod 4, and else
    (b + 2x)/s = sqrt(d0), a root of x^2 - d0, where b = f[1]."""
    d = pdeg(f)
    if d == 1 or (d == 3 and tuple(f) == CERTIFIED_CUBIC):
        return f, (0, 1, 1)
    if d == 2:
        b = f[1]
        d0, s = squarefree_kernel(discriminant(f))
        if d0 % 4 == 1:
            return ((1 - d0) // 4, -1, 1), (s + b, 2, 2 * s)
        return (-d0, 0, 1), (b, 2, s)
    if d == 3:
        raise MaximalityUncertified(f"cubic {f} carries no maximality certificate")
    raise MaximalityUncertified(f"no maximal-order rule for degree {d}")


def _inverse_mod(h, f):
    """(u, n): integer u and n with u / n = h^-1 mod f, for an integer h
    prime to the monic f.  The matrix M of multiplication by h on
    Q[x]/(f), whose row j is x^j h mod f, is an integer matrix, and u M =
    (1, 0, ..., 0); by Cramer's rule n = det M and u_j is the determinant
    of M with row j replaced by (1, 0, ..., 0)."""
    d = len(f) - 1
    rows = []
    for j in range(d):
        a = [0] * j + list(h)
        for shift in range(len(a) - 1 - d, -1, -1):  # a mod f, in integers since f is monic
            c = a[shift + d]
            if c:
                for i, fi in enumerate(f):
                    a[shift + i] -= c * fi
        rows.append((a + [0] * d)[:d])
    unit = [1] + [0] * (d - 1)
    return tuple(bareiss_det(rows[:j] + [unit] + rows[j + 1 :]) for j in range(d)), bareiss_det(rows)


@dataclass
class MaximalOrderData:
    """The analysed order: the generator theta (a vector in basis B), its
    minimal polynomial and the discriminant D of that polynomial, its
    irreducible factors, the primitive idempotents (rational vectors in
    basis B) and the defining polynomials of the components' rings of
    integers, all aligned with the factors; and the maximal order Lambda_0
    built from them.  (theta, mu, D) is the triple of
    ``algebra.primitive_elements`` that the counts take as the table's
    splitting element."""

    generator: tuple
    minpoly: tuple
    discriminant: int
    factors: list
    idempotents: list
    rings: tuple  # defining polynomial of each component's ring of integers
    basis: tuple  # rows: Lambda_0 basis vectors in B coordinates, Fractions of the integer rows over their denominators
    index: int
    conductor: int
    bad_primes: list

    def degree_bound(self, p):
        """D_p = 2*n*v - v_p[Lambda_0 : Lambda], a proven bound on the degree
        of the exceptional polynomial delta_p = Z_{Lambda,p}(t) / Z_{Lambda_0,p}(t),
        where t = p^{-s}, Lambda = ZB, n is the rank and p^v is the p-part of
        the conductor, so that p^v Lambda_0 is in Lambda.

        Proof, by Solomon's decomposition (L. Solomon, Zeta functions and
        integral representation theory, Adv. Math. 26 (1977); C. J. Bushnell
        and I. Reiner, Math. Z. 173 (1980)).  Over Z_p, Lambda_0 is the sum of
        complete DVRs O_i with idempotents e_i, uniformizers pi_i,
        ramification e_i and residue degree f_i, and sum e_i f_i = n.  For
        an ideal I of finite index in Lambda, Lambda_0 I is a principal
        Lambda_0-ideal y Lambda_0 with one y = sum e_i pi_i^{a_i}, a_i >= 0;
        then M = y^{-1} I is a Lambda-lattice with Lambda_0 M = Lambda_0, so
        p^v Lambda_0 = p^v Lambda_0 M is in Lambda M = M, and M is in
        Lambda_0.  I -> (a, M) is a bijection onto the pairs with
        y M in Lambda, and
            v_p[Lambda : I] = sum f_i a_i + v_p[Lambda_0 : M] - v_p[Lambda_0 : Lambda].
        Let S be the set of components with a_i >= e_i v.  For i in S,
        e_i y lies in p^v Lambda_0, which is in Lambda, so whether y M is in
        Lambda does not depend on the a_i with i in S: each of them runs
        freely over a_i >= e_i v and contributes the geometric tail
        t^{f_i e_i v} / (1 - t^{f_i}), while every a_i outside S is below
        e_i v.  Multiplying by 1/Z_{Lambda_0,p} = prod (1 - t^{f_i}) cancels
        the tails, so each (M, S, a outside S) gives a polynomial of degree at
        most
            sum_{i not in S} f_i (e_i v - 1 + 1) + sum_{i in S} f_i e_i v
              + v_p[Lambda_0 : M] - v_p[Lambda_0 : Lambda]
            = n v + v_p[Lambda_0 : M] - v_p[Lambda_0 : Lambda]
            <= 2 n v - v_p[Lambda_0 : Lambda],
        since M contains p^v Lambda_0.  There are finitely many M, so delta_p
        is a polynomial of degree at most D_p, and counting ideals at p to
        depth D_p determines it."""
        return 2 * len(self.basis) * valuation(self.conductor, p) - valuation(self.index, p)


def maximal_order(t: TableAlgebra) -> MaximalOrderData:
    """Assemble Lambda_0 = sum of rings of integers of the components.

    index = [Lambda_0 : ZB]; conductor = least f with f*Lambda_0 in ZB;
    bad primes = primes dividing the conductor (equivalently the index),
    which are exactly the p with Z_p B != Lambda_{0,p}.  This is the one
    pass through generator, factors, component rings and idempotents, and
    the result carries all of them.

    In integers.  The idempotent of a factor f, with h = mu / f, is
    h u(theta) / n for h^-1 = u / n mod f (``_inverse_mod``; deg h u <
    deg mu, so nothing is reduced mod mu), and the rows e, omega e, ...
    of its component are integer vectors over n, n s, ...  The conductor
    c is the lcm of the rows' denominators in lowest terms, so c Lambda_0
    is the integer lattice L of the rows times c, with HNF H.  Then
    [Lambda_0 : ZB] = [L : c Z^r] = c^r / prod diag H, ZB is in Lambda_0
    when each c b_i reduces to 0 by the rows of H (Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, 2.4), and Lambda_0 is
    a ring when each product of two rows of H, over c, does.  A rank of H
    below r, a non-integral index, a c b_i or product outside L, and an
    omega that is not a root of its ring polynomial raise
    MaximalityUncertified.
    """
    theta, mu, disc, factors, rings = _generator(t)
    if rings is None:
        rings = [_ring_polynomial(f) for f in factors]  # refuses the first uncertified component
    r = t.rank
    powers = powers_of_generator(t, theta)
    one = unit_vectors(r)[0]

    idems, rows = [], []  # rows: (integer vector, denominator) for e, omega e, omega^2 e, ... of each component
    misfit = None  # a ring polynomial R with R(omega) e != 0
    for f, (ring, (a0, a1, s)) in zip(factors, rings):
        h = pdiv_exact(mu, f)
        u, n = _inverse_mod(h, f)
        e = [0] * r
        for k, coeff in enumerate(pmul(h, u)):
            if coeff:
                for c, x in enumerate(powers[k]):
                    e[c] += coeff * x
        idems.append(tuple(Fraction(x, n) for x in e))
        omega = tuple(a0 * x + a1 * y for x, y in zip(one, theta))
        scaled = [tuple(e)]  # (s omega)^k e for k = 0 .. deg R, over n
        for _ in range(pdeg(ring)):
            scaled.append(multiply(t.lam, omega, scaled[-1]))
        rows += [(v, n * s**k) for k, v in enumerate(scaled[:-1])]
        if any(map(sum, zip(*([c * s ** (len(ring) - 1 - k) * x for x in v] for k, (c, v) in enumerate(zip(ring, scaled)))))):
            misfit = misfit or ring  # R(omega) e, times n s^deg R, is not 0

    conductor = lcm(*(d // gcd(d, *v) for v, d in rows))
    lattice = hnf([[x * conductor // d for x in v] for v, d in rows])
    if len(lattice) < r:
        raise MaximalityUncertified("degenerate maximal-order basis")
    index, rest = divmod(conductor**r, lattice_det(lattice))
    if rest:
        raise MaximalityUncertified(f"non-integral index {Fraction(conductor**r, lattice_det(lattice))}")
    # (w, d, message) with w / d in L: c b_i, and h h' / c for rows h and h' of H (h / c is in Lambda_0)
    checks = [([conductor * (j == i) for j in range(r)], 1, "ZB is not contained in the assembled order") for i in range(r)]
    for i, h in enumerate(lattice):
        for g in lattice[i:]:
            checks.append((multiply(t.lam, h, g), conductor, "the assembled order is not closed under multiplication"))
    for w, d, message in checks:
        for k, row in enumerate(lattice):
            q, rest = divmod(w[k], d * row[k])
            if rest:
                raise MaximalityUncertified(message)
            w = [x - q * d * y for x, y in zip(w, row)]
    if misfit:
        raise MaximalityUncertified(f"omega is not a root of its ring polynomial {misfit}")

    return MaximalOrderData(
        generator=theta,
        minpoly=mu,
        discriminant=disc,
        factors=factors,
        idempotents=idems,
        rings=tuple(ring for ring, _ in rings),
        basis=tuple(tuple(Fraction(x, d) for x in v) for v, d in rows),
        index=index,
        conductor=conductor,
        bad_primes=sorted(factorize(conductor)),
    )
