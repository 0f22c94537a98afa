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

maximal_order runs this once and returns all of it in one MaximalOrderData.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import TableAlgebra, check_ring, multiply, primitive_elements, unit_vectors
from .errors import MaximalityUncertified, NotMonogenic
from .exact import discriminant, factorize, fmat_det, fmat_inv, squarefree_kernel, valuation
from .polys import factor_rational, pdeg, pdiv_exact, pdivmod, pinv_mod, pmul

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
    check_ring(t.lam)
    first = None
    for theta, mu, _ in primitive_elements(t.lam):
        if first is None:
            first = (theta, mu)
        try:
            for f in factor_rational(mu):
                _ring_polynomial(f)
        except MaximalityUncertified:
            continue
        return theta, mu
    if first is not None:
        return first
    raise NotMonogenic("no candidate primitive element generates the algebra over Q")


def _ring_polynomial(f):
    """(R, omega) for an irreducible monic f of degree <= 3: Z[omega] is
    the ring of integers of Q[x]/(f), R is the defining polynomial of
    omega and omega = c_0 + c_1 x is given as (c_0, c_1).  In degree 1,
    and in degree 3 for the certified cubic, whose own ring of integers
    it is, that is (f, x).  In degree 2, with disc(f) = d0 s^2 for the
    squarefree kernel d0, omega is (s + b + 2x)/(2s) = (1 + sqrt(d0))/2,
    a root of x^2 - x + (1 - d0)/4, when d0 is 1 mod 4, and else
    (b + 2x)/s = sqrt(d0), a root of x^2 - d0, where b = f[1]."""
    d = pdeg(f)
    if d == 1 or (d == 3 and tuple(f) == CERTIFIED_CUBIC):
        return f, (0, 1)
    if d == 2:
        b = f[1]
        d0, s = squarefree_kernel(discriminant(f))
        if d0 % 4 == 1:
            return ((1 - d0) // 4, -1, 1), (Fraction(s + b, 2 * s), Fraction(1, s))
        return (-d0, 0, 1), (Fraction(b, s), Fraction(2, s))
    if d == 3:
        raise MaximalityUncertified(f"cubic {f} carries no maximality certificate")
    raise MaximalityUncertified(f"no maximal-order rule for degree {d}")


def _crt_idempotents(t: TableAlgebra, theta, mu, factors):
    """The primitive idempotents of QB, one per irreducible factor f of mu,
    as rational vectors in B: the CRT projector ((mu/f) * ((mu/f)^-1 mod
    f))(theta), reduced mod mu."""
    pw = powers_of_generator(t, theta)
    d = t.rank
    out = []
    for f in factors:
        h = pdiv_exact(mu, f)
        _, epoly = pdivmod(pmul(h, pinv_mod(h, f)), mu)
        vec = [Fraction(0)] * d
        for k, coeff in enumerate(epoly):
            if coeff:
                for c in range(d):
                    vec[c] += Fraction(coeff) * pw[k][c]
        out.append(tuple(vec))
    return out


@dataclass
class MaximalOrderData:
    """The analysed order: the generator theta (a vector in basis B), its
    minimal polynomial, the irreducible factors of that polynomial, the
    primitive idempotents (rational vectors in basis B) and the defining
    polynomials of the components' rings of integers, all aligned with the
    factors; and the maximal order Lambda_0 built from them."""

    generator: tuple
    minpoly: tuple
    factors: list
    idempotents: list
    rings: tuple  # defining polynomial of each component's ring of integers
    basis: tuple  # rows: Lambda_0 basis vectors in B coordinates (Fractions)
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
    """
    theta, mu = find_generator(t)
    factors = factor_rational(mu)
    rings, omegas = zip(*map(_ring_polynomial, factors))
    idems = _crt_idempotents(t, theta, mu, factors)
    one = unit_vectors(t.rank)[0]

    rows = []  # e, omega e, omega^2 e, ... for each component
    for ring, (c0, c1), e in zip(rings, omegas, idems):
        omega = tuple(c0 * x + c1 * y for x, y in zip(one, theta))
        rows.append(e)
        for _ in range(pdeg(ring) - 1):
            rows.append(multiply(t.lam, omega, rows[-1]))
    basis = tuple(rows)

    det = fmat_det(basis)
    if det == 0:
        raise MaximalityUncertified("degenerate maximal-order basis")
    index_fr = 1 / abs(det)
    if index_fr.denominator != 1:
        raise MaximalityUncertified(f"non-integral index {index_fr}")
    index = int(index_fr)

    inv_basis = fmat_inv(basis)
    if any(Fraction(x).denominator != 1 for row in inv_basis for x in row):
        raise MaximalityUncertified("ZB is not contained in the assembled order")

    conductor = lcm(*(Fraction(x).denominator for row in basis for x in row))

    bad = sorted(factorize(conductor).keys())
    return MaximalOrderData(
        generator=theta,
        minpoly=mu,
        factors=factors,
        idempotents=idems,
        rings=rings,
        basis=basis,
        index=index,
        conductor=conductor,
        bad_primes=bad,
    )

