"""Rational decomposition of QB for a commutative integral table algebra.

The pipeline is monogenic: take a primitive element theta from
``algebra.primitive_elements``, whose minimal polynomial mu is squarefree
of degree = rank, factor mu over Q, and read off

  * primitive idempotents of QB (two independent routes: CRT projectors in
    Q[theta], and the character/multiplicity formula),
  * the rings of integers of the simple components, each as the defining
    polynomial of a monogenic Z-basis (degree <= 2 by the discriminant
    rule; in degree 3 only the certified cubic is accepted),
  * a Z-basis of the maximal order Lambda_0, the index [Lambda_0 : ZB],
    the conductor, and the bad primes.

maximal_order runs this once and returns all of it in one MaximalOrderData.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BasisKind,
    TableAlgebra,
    check_ring,
    multiply,
    primitive_elements,
    unit_vectors,
)
from .errors import BasisKindMismatch, MaximalityUncertified, NotMonogenic
from .exact import discriminant, factorize, fmat_det, fmat_inv, squarefree_kernel, valuation
from math import lcm

from .polys import (
    FieldElt,
    factor_rational,
    largest_real_root,
    pdeg,
    pdiv_exact,
    pdivmod,
    pmul,
)

CERTIFIED_CUBIC = (1, -1, -2, 1)  # x^3 - 2x^2 - x + 1, ring of integers of its field


@dataclass
class CharacterTable:
    """Irreducible characters grouped by Galois class.

    characters[c][i] is chi_c(b_i) as an element of Q[x]/(f_c); weights[c]
    is m_chi/n in the same field (always defined); multiplicities[c] is the
    rational m_chi when it is rational, else None; order_n is the order of
    the standard rescaling (a Fraction when rational).
    """

    factors: list
    characters: list
    weights: list
    multiplicities: list
    order_n: object
    delta_index: int  # which factor carries the degree character


def powers_of_generator(t: TableAlgebra, theta):
    "theta^0, theta^1, ..., theta^(rank-1) as vectors in basis B."
    vecs = [unit_vectors(t.rank)[0]]
    for _ in range(t.rank - 1):
        vecs.append(multiply(t.lam, theta, vecs[-1]))
    return vecs


def basis_in_generator(t: TableAlgebra, theta):
    "q_i with b_i = q_i(theta): solves the power-basis linear system."
    d = t.rank
    pw = powers_of_generator(t, theta)
    gmat = tuple(tuple(Fraction(pw[k][i]) for i in range(d)) for k in range(d))
    # rows of gmat are the power vectors; q_i solves x * gmat = e_i, the
    # i-th row of the inverse
    return list(fmat_inv(gmat))


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


def primitive_idempotents(t: TableAlgebra):
    """CRT projector route: for each irreducible factor f of mu, the
    idempotent is ((mu/f) * ((mu/f)^-1 mod f))(theta), as a vector in B."""
    theta, mu = find_generator(t)
    return _crt_idempotents(t, theta, mu, factor_rational(mu))


def _crt_idempotents(t: TableAlgebra, theta, mu, factors):
    pw = powers_of_generator(t, theta)
    d = t.rank
    out = []
    for f in factors:
        h = pdiv_exact(mu, f)
        hinv = FieldElt(f, h).inv()
        epoly = pmul(h, tuple(hinv.c))
        _, epoly = pdivmod(epoly, mu)
        vec = [Fraction(0)] * d
        for k, coeff in enumerate(epoly):
            if coeff:
                for c in range(d):
                    vec[c] += Fraction(coeff) * pw[k][c]
        out.append(tuple(vec))
    return out


def character_table(t: TableAlgebra) -> CharacterTable:
    """Characters, weights w = m/n, and multiplicities, grouped by the
    irreducible factors of the generator's minimal polynomial.

    The weights come from the orthogonality relation: for the standard
    basis sum_i chi(b_i) chi(b_i*) / delta_i = n / m_chi, and for a
    transitional basis the same without the delta division.  This never
    needs n itself, so it stays exact inside each factor field.
    """
    factors, coords = _factors_and_coordinates(t)
    if t.basis_kind is BasisKind.RAW:
        raise BasisKindMismatch("character formulas need a standard or transitional basis")
    d = t.rank
    inv = t.involution

    chars = []
    for f in factors:
        chars.append([FieldElt(f, coords[i]) for i in range(d)])

    standard = t.basis_kind is BasisKind.STANDARD
    if standard:
        deltas = [t.lam[i][inv[i]][0] for i in range(d)]
        if any(x <= 0 for x in deltas):
            raise BasisKindMismatch("standard basis must have lambda[i][i*][0] > 0")

    weights = []
    for f, ch in zip(factors, chars):
        s = FieldElt.constant(f, 0)
        for i in range(d):
            term = ch[i] * ch[inv[i]]
            if standard:
                term = term * Fraction(1, deltas[i])
            s = s + term
        weights.append(s.inv())

    delta_index, _ = largest_real_root(factors)

    # order of the standard rescaling: sum of delta_i (standard) or
    # sum of delta_i^2 (transitional), as an element of the delta field
    fd = factors[delta_index]
    chd = chars[delta_index]
    n_elt = FieldElt.constant(fd, 0)
    for i in range(d):
        n_elt = n_elt + (chd[i] if standard else chd[i] * chd[i])
    order_n = n_elt.rational_value() if n_elt.is_rational() else n_elt

    mults = []
    for c, w in enumerate(weights):
        if isinstance(order_n, Fraction):
            m = w * order_n
            mults.append(m.rational_value() if m.is_rational() else None)
        elif c == delta_index:
            m = w * n_elt
            mults.append(m.rational_value() if m.is_rational() else None)
        else:
            mults.append(None)
    return CharacterTable(
        factors=factors,
        characters=chars,
        weights=weights,
        multiplicities=mults,
        order_n=order_n,
        delta_index=delta_index,
    )


def _factors_and_coordinates(t: TableAlgebra):
    """(factors of mu, [q_i with b_i = q_i(theta)]) for the generator theta:
    the input of every character evaluation."""
    theta, mu = find_generator(t)
    return factor_rational(mu), basis_in_generator(t, theta)


def degree_character_values(t: TableAlgebra):
    """(f_delta, [delta(b_i) as FieldElt]) - the degree character evaluated
    exactly inside its factor field (the factor holding the largest real
    root).  Works for any valid commutative basis."""
    factors, coords = _factors_and_coordinates(t)
    f = factors[largest_real_root(factors)[0]]
    return f, [FieldElt(f, coords[i]) for i in range(t.rank)]


def character_formula_idempotents(t: TableAlgebra):
    """Character/multiplicity route to the rational primitive idempotents:
    coefficient of b_i in e~_chi is Tr(w_chi * chi(b_i*)) (transitional) or
    Tr(w_chi * chi(b_i*)) / delta_i (standard), with w_chi = m_chi / n from
    orthogonality.  Galois-orbit sums happen through the field trace."""
    ct = character_table(t)
    d = t.rank
    inv = t.involution
    standard = t.basis_kind is BasisKind.STANDARD
    deltas = [t.lam[i][inv[i]][0] for i in range(d)] if standard else None
    out = []
    for f, ch, w in zip(ct.factors, ct.characters, ct.weights):
        vec = []
        for i in range(d):
            val = (w * ch[inv[i]]).trace()
            if standard:
                val = val / deltas[i]
            vec.append(val)
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

