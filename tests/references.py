"""Reference implementations that the tests check the package against,
each computed another way than the package computes it; the tables the
tests build (Z[x]/(f), group rings and tensor products); and
``region_integral``, which reads one genus region's integral off the
package's region sum for the tests of that sum; and the genus helpers
that only the tests call: ``block_triangularize``, and the residue-count
certificate of a region decomposition (``residue_certificate``)."""

from fractions import Fraction
from math import gcd

from tablezeta.dirichlet import LocalRationalFunction
from tablezeta.errors import NotFullRank, UnsupportedM
from tablezeta.exact import fmat_det, fmat_inv, hnf_square, lattice_det, valuation, vec_mat
from tablezeta.genus import LocalModel, Region, _region_sum, _to_exps
from tablezeta.ideals import LatticeHNF, _action_matrices, _closed, _hnf_rows
from tablezeta.polys import pdeg, pdivmod, pnorm
from tablezeta.ppoly import PPoly


def sylvester_discriminant(f):
    "disc f = (-1)^(n(n-1)/2) Res(f, f') for a monic f of degree n, from the Sylvester matrix."
    n = len(f) - 1
    a = list(reversed(f))
    b = list(reversed([k * c for k, c in enumerate(f)][1:]))
    size = 2 * n - 1
    rows = [[0] * i + a + [0] * (size - len(a) - i) for i in range(n - 1)]
    rows += [[0] * i + b + [0] * (size - len(b) - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * int(fmat_det(rows))


def stream_count(lam, n):
    """a_n by the plain stream: every index-n HNF of Z^rank in turn, tested
    for closure under the table.  It assumes no local-global theorem, so it
    checks the composite coefficients that ``count_ideals`` multiplies."""
    acts = _action_matrices(lam)
    return sum(1 for rows in _hnf_rows(len(lam), n) if _closed(acts, rows))


def stream_series(lam, bound):
    "(a_1, ..., a_bound) by the plain stream."
    return tuple(stream_count(lam, n) for n in range(1, bound + 1))


def quotient_ring_table(defining_poly):
    """Multiplication tensor of Z[x]/(f) on the power basis, identity at
    index 0, for a monic integer f."""
    f = pnorm(tuple(defining_poly))
    d = pdeg(f)
    lam = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            _, rem = pdivmod((0,) * (i + j) + (1,), f)
            for k, v in enumerate(rem):
                if getattr(v, "denominator", 1) != 1:
                    raise ValueError("non-monic defining polynomial")
                lam[i][j][k] = int(v)
    return tuple(tuple(tuple(row) for row in plane) for plane in lam)


def group_table(order, mul):
    "The multiplication tensor of Z[G] on the group basis, identity first."
    return tuple(
        tuple(tuple(1 if mul(i, j) == k else 0 for k in range(order)) for j in range(order)) for i in range(order)
    )


def tensor_table(a, b):
    """The multiplication tensor of A (x) B, for the tensors a of A and b of
    B, on the basis a_i (x) b_j at index i * rank(B) + j, identity first."""
    rb = len(b)
    r = len(a) * rb
    return tuple(
        tuple(
            tuple(a[i // rb][j // rb][k // rb] * b[i % rb][j % rb][k % rb] for k in range(r)) for j in range(r)
        )
        for i in range(r)
    )


def idempotent_suite_holds(order, algebra):
    "The primitive idempotents of a MaximalOrderData: e^2 = e, e_f e_g = 0, sum e = 1, exactly."
    d = algebra.rank
    zero = (Fraction(0),) * d
    total = zero
    for a, ea in enumerate(order.idempotents):
        total = tuple(x + y for x, y in zip(total, ea))
        for b, eb in enumerate(order.idempotents):
            if tuple(algebra.multiply(ea, eb)) != (tuple(ea) if a == b else zero):
                return False
    return total == (Fraction(1),) + zero[1:]


def order_closed_under_multiplication(algebra, basis):
    "Tensor-transport check that the row span of basis is a ring."
    inv = fmat_inv(basis)
    for u in basis:
        for v in basis:
            coords = vec_mat(tuple(map(Fraction, algebra.multiply(u, v))), inv)
            if any(Fraction(x).denominator != 1 for x in coords):
                return False
    return True


def region_integral(model, region):
    """count * the product of the component integrals of one genus region,
    at a concrete prime, as num/(1-t)^2 with Fraction coefficients: the
    one-region case of the sum that ``genus.genus_zeta`` takes."""
    num, den = _region_sum(model, [region])
    return LocalRationalFunction(model.p, tuple(Fraction(x, den) for x in num), (1, -2, 1))


def block_triangularize(model: LocalModel, rows) -> LatticeHNF:
    """Canonical HNF of an arbitrary full lattice given by (possibly
    rational) rows over the ordered basis; denominators must be prime to
    p, and the p-part of the index is what survives localization."""
    if model.symbolic:
        raise UnsupportedM("block triangularization needs a concrete prime")
    p = model.p
    int_rows = []
    for row in rows:
        den = 1
        for x in row:
            d = Fraction(x).denominator
            den = den * d // gcd(den, d)
        if den % p == 0:
            raise NotFullRank("row denominators must be prime to p")
        int_rows.append(tuple(int(Fraction(x) * den) for x in row))
    det = lattice_det(hnf_square(tuple(int_rows)))
    k = valuation(det, p) if det % p == 0 else 0
    stacked = tuple(int_rows) + tuple(tuple(p**k if i == j else 0 for j in range(3)) for i in range(3))
    loc = hnf_square(stacked)
    return LatticeHNF(3, loc)


def region_residue_exponent(region: Region, K):
    "log_p of the residue count of the region's piece modulo p^K Lambda_0."
    return sum(w * K - (part.valuation + part.depth) for w, part in ((2, region.quadratic), (1, region.rational)))


def residue_certificate(model: LocalModel, lattice, regions, K):
    """Exhaustive-and-disjoint check: sum over regions of residue counts
    mod p^K equals [L : p^K Lambda_0], for L a LatticeHNF (numeric) or an
    exponent matrix (symbolic).  Returns (lhs, rhs) as polynomials in p
    (symbolic) or integers."""
    if model.symbolic:
        exps, p, lhs = lattice, PPoly.var(), PPoly(0)
    else:
        exps, p, lhs = _to_exps(model, lattice.matrix), model.p, 0
    for reg in regions:
        lhs = lhs + (reg.count if model.symbolic else reg.count(p)) * p ** region_residue_exponent(reg, K)
    return lhs, p ** (3 * K - exps[0][0] - exps[1][1] - exps[2][2])
