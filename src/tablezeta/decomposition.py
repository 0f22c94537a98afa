"""Rational decomposition of QB for a commutative integral table algebra.

The pipeline is monogenic: find a basis element g whose minimal polynomial
mu is squarefree of degree = rank, factor mu over Q, and read off

  * primitive idempotents of QB (two independent routes: CRT projectors in
    Q[g], and the character/multiplicity formula),
  * the rings of integers of the simple components (degree <= 2 by the
    discriminant rule; in degree 3 only the certified cubic is accepted),
  * a Z-basis of the maximal order Lambda_0, the index [Lambda_0 : ZB],
    the conductor, and the bad primes.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BasisKind,
    TableAlgebra,
    _annihilates,
    _commutative_or_raise,
    radical_of_charpoly,
    regular_representation,
)
from .errors import BasisKindMismatch, MaximalityUncertified, NotMonogenic
from .exact import factorize, fmat_det, fmat_inv, vec_mat
from math import gcd

from .polys import (
    FieldElt,
    factor_rational,
    largest_real_root,
    pdeg,
    pdiv_exact,
    pdivmod,
    pmul,
    pnorm,
    to_int_poly,
)

CERTIFIED_CUBIC = (1, -1, -2, 1)  # x^3 - 2x^2 - x + 1, ring of integers of its field


@dataclass(frozen=True)
class NumberRing:
    """Ring of integers of a simple component, degree <= 3.

    defining_poly is the minimal polynomial of the chosen integral
    generator omega (so the ring is Z[omega] on the nose).
    """

    defining_poly: tuple
    is_maximal_certified: bool
    discriminant: int

    @property
    def degree(self):
        return pdeg(self.defining_poly)


@dataclass
class RationalDecomposition:
    generator_index: int
    minpoly: tuple
    factors: list
    idempotents: list  # rational vectors in basis B, aligned with factors
    component_rings: list

    def check_idempotent_suite(self, algebra):
        "e^2 = e, e_f e_g = 0, sum e = 1, exactly."
        d = algebra.rank
        one = tuple(Fraction(1 if i == 0 else 0) for i in range(d))
        total = tuple(Fraction(0) for _ in range(d))
        for a, ea in enumerate(self.idempotents):
            total = tuple(x + y for x, y in zip(total, ea))
            for b, eb in enumerate(self.idempotents):
                prod = algebra.multiply(ea, eb)
                want = ea if a == b else tuple(Fraction(0) for _ in range(d))
                if tuple(prod) != tuple(want):
                    return False
        return total == one


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


def powers_of_generator(t: TableAlgebra, gen: int):
    "Columns g^0, g^1, ..., g^(rank-1) as vectors in basis B."
    d = t.rank
    m = regular_representation(t, gen)
    vecs = [tuple(1 if i == 0 else 0 for i in range(d))]
    for _ in range(d - 1):
        prev = vecs[-1]
        vecs.append(tuple(sum(m[k][j] * prev[j] for j in range(d)) for k in range(d)))
    return vecs


def basis_in_generator(t: TableAlgebra, gen: int):
    "q_i with b_i = q_i(g): solves the power-basis linear system."
    d = t.rank
    pw = powers_of_generator(t, gen)
    gmat = tuple(tuple(Fraction(pw[k][i]) for i in range(d)) for k in range(d))
    # rows of gmat are the power vectors; q_i solves x * gmat = e_i, the
    # i-th row of the inverse
    return list(fmat_inv(gmat))


def _generator_candidates(t: TableAlgebra):
    d = t.rank
    if d == 1:
        yield 0, (-1, 1)
        return
    for i in range(1, d):
        m = regular_representation(t, i)
        sf = radical_of_charpoly(m)
        if pdeg(sf) == d and _annihilates(sf, m):
            yield i, to_int_poly(sf)


def find_generator(t: TableAlgebra):
    """Least basis index whose minimal polynomial is squarefree of full
    degree and whose irreducible factors all admit a certified maximal
    order.  Falls back to the least monogenic index when no candidate is
    fully certifiable (maximal_order will then refuse)."""
    _commutative_or_raise(t)
    first = None
    for i, mu in _generator_candidates(t):
        if first is None:
            first = (i, tuple(mu))
        try:
            for f in factor_rational(mu):
                _number_ring(f, require_certified=True)
        except MaximalityUncertified:
            continue
        return i, tuple(mu)
    if first is not None:
        return first
    raise NotMonogenic("no basis element generates the algebra over Q")


def factor_min_poly(mu):
    "Irreducible factors over Q of a monic squarefree poly, degree <= 4 once its integer roots are divided out."
    return factor_rational(tuple(mu))


def _number_ring(f, require_certified=False) -> NumberRing:
    from .exact import squarefree_kernel

    d = pdeg(f)
    if d == 1:
        return NumberRing(defining_poly=f, is_maximal_certified=True, discriminant=1)
    if d == 2:
        b, c = f[1], f[0]
        disc = b * b - 4 * c
        d0, _ = squarefree_kernel(disc)
        if d0 % 4 == 1:
            # ring of integers Z[(1+sqrt(d0))/2]
            poly = (int((1 - d0) // 4), -1, 1)
            return NumberRing(defining_poly=pnorm(poly), is_maximal_certified=True, discriminant=d0)
        poly = (-d0, 0, 1)
        return NumberRing(defining_poly=pnorm(poly), is_maximal_certified=True, discriminant=4 * d0)
    if d == 3:
        if tuple(f) == CERTIFIED_CUBIC:
            return NumberRing(defining_poly=f, is_maximal_certified=True, discriminant=_cubic_disc(f))
        ring = NumberRing(defining_poly=f, is_maximal_certified=False, discriminant=_cubic_disc(f))
        if require_certified:
            raise MaximalityUncertified(f"cubic {f} carries no maximality certificate")
        return ring
    raise MaximalityUncertified(f"no maximal-order rule for degree {d}")


def _cubic_disc(f):
    c, b, a, _ = f  # x^3 + a x^2 + b x + c
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def primitive_idempotents(t: TableAlgebra):
    """CRT projector route: for each irreducible factor f of mu, the
    idempotent is ((mu/f) * ((mu/f)^-1 mod f))(g), as a vector in B."""
    gen, mu = find_generator(t)
    return _crt_idempotents(t, gen, mu, factor_min_poly(mu))


def _crt_idempotents(t: TableAlgebra, gen, mu, factors):
    pw = powers_of_generator(t, gen)
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
    """(factors of mu, [q_i with b_i = q_i(g)]) for the generator g: the
    input of every character evaluation."""
    gen, mu = find_generator(t)
    return factor_min_poly(mu), basis_in_generator(t, gen)


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
    basis: tuple  # rows: Lambda_0 basis vectors in B coordinates (Fractions)
    index: int
    conductor: int
    bad_primes: list
    rings: list
    decomposition: RationalDecomposition  # the decomposition Lambda_0 is built from


def maximal_order(t: TableAlgebra) -> MaximalOrderData:
    """Assemble Lambda_0 = sum of rings of integers of the components.

    index = [Lambda_0 : ZB]; conductor = least f with f*Lambda_0 in ZB;
    bad primes = primes dividing the conductor (equivalently the index),
    which are exactly the p with Z_p B != Lambda_{0,p}.  This is the one
    pass through generator, factors, component rings and idempotents; the
    result carries them as its decomposition.
    """
    gen, mu = find_generator(t)
    factors = factor_min_poly(mu)
    rings = [_number_ring(f, require_certified=True) for f in factors]
    idems = _crt_idempotents(t, gen, mu, factors)
    mg = regular_representation(t, gen)
    d = t.rank

    rows = []
    for f, ring, e in zip(factors, rings, idems):
        deg = pdeg(f)
        theta_e = [e]
        for _ in range(deg - 1):
            prev = theta_e[-1]
            theta_e.append(tuple(sum(Fraction(mg[k][j]) * prev[j] for j in range(d)) for k in range(d)))
        if deg == 1:
            rows.append(theta_e[0])
        elif deg == 2:
            b = f[1]
            disc = b * b - 4 * f[0]
            from .exact import squarefree_kernel

            d0, tt = squarefree_kernel(disc)
            if d0 % 4 == 1:
                # omega = (t + 2 theta + b) / (2 t)
                omega = tuple(
                    (Fraction(tt + b, 2 * tt) * theta_e[0][c] + Fraction(2, 2 * tt) * theta_e[1][c])
                    for c in range(d)
                )
            else:
                omega = tuple(Fraction(b, tt) * theta_e[0][c] + Fraction(2, tt) * theta_e[1][c] for c in range(d))
            rows.extend([theta_e[0], omega])
        else:
            rows.extend(theta_e)
    basis = tuple(tuple(r) for r in rows)

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

    conductor = 1
    for row in basis:
        for x in row:
            lc = Fraction(x).denominator
            conductor = conductor * lc // gcd(conductor, lc)

    bad = sorted(factorize(conductor).keys())
    return MaximalOrderData(
        basis=basis,
        index=index,
        conductor=conductor,
        bad_primes=bad,
        rings=rings,
        decomposition=RationalDecomposition(gen, mu, factors, idems, rings),
    )


def order_closed_under_multiplication(t: TableAlgebra, basis):
    "Tensor-transport check that the row span of basis is a ring."
    inv = fmat_inv(basis)
    for u in basis:
        for v in basis:
            prod = t.multiply(u, v)
            coords = vec_mat(tuple(Fraction(x) for x in prod), inv)
            if any(Fraction(x).denominator != 1 for x in coords):
                return False
    return True
