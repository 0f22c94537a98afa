"""Reference implementations that the tests check the package against,
each computed another way than the package computes it, and code that
only the tests run:

* the plain stream (``enumerate_sublattices``, ``is_ideal``,
  ``stream_count``): every index-n HNF of Z^rank in turn, tested for
  closure under the table, against which the descent's counts are
  checked;
* ``whole_ring_descent``, the descent through every maximal ideal of
  Lambda/pLambda at once, against which the descent's convolution of one
  tower per maximal ideal is checked;
* ``assemble_global_per_prime``, the Euler product assembled with a
  residue-degree pattern at every good prime, against which the root
  counts that ``dirichlet.assemble_global`` takes above sqrt(N) are
  checked;
* the tables the tests build (Z[x]/(f), group rings and tensor products,
  and ``good_prime_tables``, on which the maximal ideals at the primes
  prime to D are checked), the cyclotomic polynomials, whose factors mod
  p theory fixes, and checks of a ``MaximalOrderData`` (its idempotents,
  its ring);
* Lambda_0 in Fractions (``maximal_order_by_fractions``): the CRT
  idempotents by ``pinv_mod`` over Q, the index from the determinant and
  the containment of ZB from the inverse of the basis (``fmat_det``,
  ``fmat_inv``), against which ``decomposition.maximal_order``'s
  integer construction is checked;
* ``greedy_ideal_generators``, the generator search of
  ``modp.maximal_ideals`` that takes every member's span in every round;
* the character layer: real roots by Sturm sequences (``AlgebraicNumber``),
  arithmetic in Q[x]/(f) (``FieldElt``), the degree map and the rescaling
  of a basis, and the character table, whose idempotents are a second
  derivation of the CRT idempotents of ``decomposition.maximal_order``;
* ``region_integral``, which reads one genus region's integral off the
  package's region sum, and the genus helpers ``block_triangularize`` and
  the residue-count certificate of a region decomposition
  (``residue_certificate``);
* the genus lattice steps by the generic 3x3 routes: the HNF of a
  triple's rows and of a scaled digit-tree state by ``hnf_square``, and
  {M : target} from the products A_g W of each row g's action matrix
  with W (``triple_hnf``, ``scaled_reduced_by_hnf``,
  ``complementary_lattice_by_products``).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, isqrt, lcm

from tablezeta.algebra import BasisKind, TableAlgebra, action_matrix, check_ring, unit_vectors, validate
from tablezeta.decomposition import _ring_polynomial, find_generator, powers_of_generator
from tablezeta.dirichlet import LocalRationalFunction, _dedekind_den, _residue_degrees, expand
from tablezeta.errors import InputError, MaximalityUncertified, MissingBadPrime, NotFullRank, TableZetaError, UnsupportedM
from tablezeta.exact import charpoly, discriminant, divisors, factorize, hnf_square, lattice_det, mat_mul, primes_up_to, valuation
from tablezeta.families import FUSION_NAMES, conference, drt, fusion
from tablezeta.genus import (
    LatticeHNF,
    LocalModel,
    Region,
    _membership_congruence_matrix,
    _region_sum,
    _to_exps,
)
from tablezeta.ideals import (
    IdealCountSeries,
    _degree_one_children,
    _hyperplanes,
    _moebius_terms,
    _products,
    _sublattice,
)
from tablezeta.modp import kernel_mod_pk, maximal_ideals, rref
from tablezeta.polys import (
    factor_rational,
    padd,
    pdeg,
    pdiv_exact,
    peval,
    pmul,
    pnorm,
    to_int_poly,
)
from tablezeta.ppoly import PPoly


# --- the plain stream over every HNF ----------------------------------------
#
# The index-n sublattices of Z^dim are enumerated by divisor tuples
# d_1 ... d_dim = n and independent off-diagonal residues, in a fixed
# order: divisor tuples lexicographically, off-diagonal residues row-major.


def divisor_tuples(n, k):
    "All (d_1, ..., d_k) with product n, in lexicographic order."
    if k == 1:
        yield (n,)
        return
    for d in divisors(n):
        for rest in divisor_tuples(n // d, k - 1):
            yield (d,) + rest


def enumerate_sublattices(dim, n):
    "Every index-n sublattice of Z^dim exactly once, canonical HNF, fixed order."
    if n < 1:
        raise InputError("index must be >= 1")
    for rows in _hnf_rows(dim, n):
        yield LatticeHNF(dim, rows)


def _hnf_rows(dim, n):
    """The rows of every index-n HNF, unvalidated, in stream order: row i
    is (0,..,0, d_i, entries of row i), and the product over the rows
    varies the last off-diagonal entry fastest (row-major)."""
    for diag in divisor_tuples(n, dim):
        choices = [
            [(0,) * i + (diag[i],) + tail for tail in product(*(range(diag[j]) for j in range(i + 1, dim)))]
            for i in range(dim)
        ]
        yield from product(*choices)


def _action_matrices(lam):
    "The action matrices of b_1 .. b_(r-1), from ``algebra.action_matrix``; b_0 is the identity."
    return [action_matrix(lam, e) for e in unit_vectors(len(lam))[1:]]


def _in_lattice(rows, v):
    dim = len(rows)
    v = list(v)
    for i in range(dim):
        d = rows[i][i]
        if v[i] % d:
            return False
        q = v[i] // d
        if q:
            for c in range(i, dim):
                v[c] -= q * rows[i][c]
    return True


def _closed(acts, rows):
    "True iff every HNF row times every action matrix stays in the row lattice."
    dim = len(rows)
    for act in acts:
        for g in rows:
            prod = [0] * dim
            for l in range(dim):
                gl = g[l]
                if gl:
                    arow = act[l]
                    for k in range(dim):
                        prod[k] += gl * arow[k]
            if not _in_lattice(rows, prod):
                return False
    return True


def is_ideal(table, lattice: LatticeHNF) -> bool:
    """True iff the lattice is closed under multiplication by every basis
    element of the table, which check_ring must accept first."""
    check_ring(table)
    dim = len(table)
    if lattice.dim != dim:
        raise InputError(f"lattice dimension {lattice.dim} != table rank {dim}")
    return _closed(_action_matrices(table), lattice.matrix)


def stream_count(lam, n):
    """a_n by the plain stream: every index-n HNF of Z^rank in turn, tested
    for closure under the table.  It assumes no local-global theorem, so it
    checks the composite coefficients that ``count_ideals`` multiplies."""
    acts = _action_matrices(lam)
    return sum(1 for rows in _hnf_rows(len(lam), n) if _closed(acts, rows))


def stream_series(lam, bound):
    "(a_1, ..., a_bound) by the plain stream."
    return tuple(stream_count(lam, n) for n in range(1, bound + 1))


# --- the descent over the whole ring at once ---------------------------------


def whole_ring_descent(table, p, kmax):
    """[a_1, a_p, ..., a_{p^kmax}] for kmax >= 1 by one descent through every
    maximal ideal of Lambda/pLambda (``modp.maximal_ideals``) at once, with
    ``ideals``'s child builders and Moebius sums but no splitting into
    blocks: the tower that ``ideals._descend`` gets as a convolution of one
    tower per maximal ideal.

    Level by level from Lambda.  An ideal I of index p^k gets, for a
    maximal ideal m of residue degree f above p with k + f <= kmax, the
    children J with mI <= J < I and I/J = F_q, q = p^f: the
    F_q-hyperplanes of I/mI.  The maximal ideals are taken in a fixed
    order, and I gets children only at the m of its own last step and
    after it.  Every ideal J of index at most p^kmax is still reached:
    Lambda/J is the direct sum of its localizations at the m in its
    support (Solomon 1977; Bushnell-Reiner 1980), so a composition series
    can take all its factors at the first m, then all at the next, and so
    on, and each step is a maximal sub-ideal.  Children are kept by
    canonical HNF, so an ideal reached from several parents is counted
    once.  Level k >= r (r the rank) drops the ideals inside p Lambda and
    counts them as a_{p^(k-r)}; no path to a kept ideal passes through
    them, since every ideal on it contains the kept one.

    The last level is counted, not built.  Let J be an ideal of index p^k,
    k >= 1, and m the last maximal ideal of its support, of residue field
    F_q, q = p^f.  The K with mK <= J < K are the K with J < K <= (J : m),
    and K/J runs over the nonzero F_q-subspaces N of (J : m)/J.  The
    support of each such K lies in J's, so the descent walks K, if K is
    not inside p Lambda, with m at or after K's last step; and conversely,
    for K, an m at or after K's last step and mK <= J < K, m is the last
    maximal ideal of J's support.  So a_{p^k} is the sum, over the ideals
    K of index p^j < p^k and the m at or after K's last step with
    j + c f = k for a c >= 1, of ``ideals._moebius_terms(d/f, q)[c - 1]``,
    d = dim_Fp K/mK.  An ideal pK' inside p Lambda has every maximal ideal
    in its support, so it enters only at the last m, with dim pK'/m pK' =
    dim K'/mK'.  Each built level is checked against its sum."""
    r = len(table)
    steps = [(m, [action_matrix(table, g) for g in m.generators]) for m in maximal_ideals(table, p)]
    acts = [action_matrix(table, e) for e in unit_vectors(r)[1:]]
    last, f_last = len(steps) - 1, steps[-1][0].f
    # k < kmax -> {HNF rows: position in steps of the last step}
    levels = [{tuple(unit_vectors(r)): 0}] + [{} for _ in range(kmax - 1)]
    sums = [0] * (kmax + 1)
    last_dims = [{} for _ in range(kmax)]  # k -> {d: ideals of index p^k with dim I/mI = d at the last m}

    def add(k, d, f, times=1):
        for c, term in enumerate(_moebius_terms(d // f, p**f)[: (kmax - k) // f], 1):
            sums[k + c * f] += times * term

    counts = []
    for k, level in enumerate(levels):
        if k >= r:
            level = {rows: first for rows, first in level.items() if any(x % p for row in rows for x in row)}
            for d, times in last_dims[k - r].items():
                add(k, d, f_last, times)
            last_dims[k] = dict(last_dims[k - r])
        counts.append(len(level) + (counts[k - r] if k >= r else 0))
        if k and sums[k] != counts[k]:
            raise ArithmeticError(f"at p = {p}, index p^{k}: built {counts[k]} ideals, the Moebius sum is {sums[k]}")
        for rows, first in level.items():
            for pos in range(first, len(steps)):
                m, gens = steps[pos]
                if k + m.f > kmax:
                    continue
                w = rref([c for g in gens for c in _products(rows, g)], p)
                d = r - len(w)
                add(k, d, m.f)
                if pos == last:
                    last_dims[k][d] = last_dims[k].get(d, 0) + 1
                if k + m.f == kmax:
                    continue
                if m.f == 1:
                    children = _degree_one_children(rows, w, p)
                else:
                    subs = (w,) if d == m.f else _hyperplanes(w, m.f, [_products(rows, a) for a in acts], p, r)
                    children = (_sublattice(rows, sub, p) for sub in subs)
                for hnf in children:
                    levels[k + m.f][hnf] = pos
    counts.append(sums[kmax])
    return counts


# --- the Euler product, one residue-degree pattern per good prime -----------


def assemble_global_per_prime(rings, bad_primes, exceptional, bound):
    """dirichlet.assemble_global with no root counts and no residue-class
    memo: every good prime, p^2 > N or not, gets the sorted residue degrees
    of the primes above it (``dirichlet._residue_degrees``, Euler's
    criterion at each p), each pattern expanded once per depth, and a_n is
    the product of the a_{p^v} with p^v || n by the definition, not by
    ``IdealCountSeries.from_towers``."""
    for p in bad_primes:
        if p not in exceptional:
            raise MissingBadPrime(f"no exceptional local factor supplied for p = {p}")
    discs = [discriminant(ring) for ring in rings]
    good = {}  # (sorted residue degrees, kmax) -> [a_1, a_p, ..., a_{p^kmax}]

    def tower(p, kmax):
        if p in exceptional:
            return expand(exceptional[p], kmax)
        key = (_residue_degrees(rings, p, discs), kmax)
        if key not in good:
            good[key] = expand(LocalRationalFunction(p, (1,), _dedekind_den(key[0])), kmax)
        return good[key]

    coeffs = [1] * bound
    for p in primes_up_to(bound):  # a_n = prod a_{p^v} over p^v || n, by the definition
        kmax = 0
        while p ** (kmax + 1) <= bound:
            kmax += 1
        a = tower(p, kmax)
        for n in range(p, bound + 1, p):
            v = 0
            while n % p ** (v + 1) == 0:
                v += 1
            coeffs[n - 1] *= a[v]
    return IdealCountSeries(bound, coeffs)


# --- tables and checks of the maximal order -----------------------------------


def sylvester_discriminant(f):
    "disc f = (-1)^(n(n-1)/2) Res(f, f') for a monic f of degree n, from the Sylvester matrix."
    n = len(f) - 1
    a = list(reversed(f))
    b = list(reversed([k * c for k, c in enumerate(f)][1:]))
    size = 2 * n - 1
    rows = [[0] * i + a + [0] * (size - len(a) - i) for i in range(n - 1)]
    rows += [[0] * i + b + [0] * (size - len(b) - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * int(fmat_det(rows))


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


def cyclotomic(n):
    """The n-th cyclotomic polynomial Phi_n by ascending coefficients:
    x^n - 1 divided in Z[x] by Phi_d for every d < n dividing n."""
    phi = (-1,) + (0,) * (n - 1) + (1,)
    for d in divisors(n)[:-1]:
        phi = pdiv_exact(phi, cyclotomic(d))
    return phi


def group_table(order, mul):
    "The multiplication tensor of Z[G] on the group basis, identity first."
    return tuple(
        tuple(tuple(1 if mul(i, j) == k else 0 for k in range(order)) for j in range(order)) for i in range(order)
    )


def good_prime_tables():
    """{label: table}: the fusion rings, drt(1, 2, 3, 6, 15, 24, 60),
    conference(1, 3, 4), Z[C3], Z[C4], Z[C6] and fib (x) Z[C2]."""
    tables = {name: fusion(name).lam for name in FUSION_NAMES}
    tables.update({f"drt({u})": drt(u).lam for u in (1, 2, 3, 6, 15, 24, 60)})
    tables.update({f"conference({u})": conference(u).lam for u in (1, 3, 4)})
    tables.update({f"Z[C{n}]": group_table(n, lambda i, j, n=n: (i + j) % n) for n in (3, 4, 6)})
    tables["fib x c2"] = tensor_table(fusion("fib").lam, group_table(2, lambda i, j: i ^ j))
    return tables


def greedy_ideal_generators(lam, basis, p):
    """Members of the basis of an ideal that generate it, each the first
    that enlarges the ideal generated so far the most, found by taking the
    span of every member in every round."""
    gens, span = [], ()
    while len(span) < len(basis):
        span, g = max(
            ((rref(span + action_matrix(lam, g), p), g) for g in basis),
            key=lambda pair: len(pair[0]),
        )
        gens.append(g)
    return tuple(gens)


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
            w = algebra.multiply(u, v)
            coords = [sum(w[i] * inv[i][j] for i in range(len(w))) for j in range(len(inv[0]))]
            if any(Fraction(x).denominator != 1 for x in coords):
                return False
    return True


# --- Lambda_0 in Fractions -------------------------------------------------
#
# Division with remainder and inverses over Q, Fraction matrices, and the
# construction of the maximal order that ``decomposition.maximal_order``
# made in Fractions before it computed in integers.


def psub(a, b):
    return padd(a, tuple(-x for x in b))


def pscale(a, s):
    return pnorm(tuple(x * s for x in a))


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


def pinv_mod(h, f):
    """The inverse of h modulo f over Q, of degree below deg f, by the
    extended Euclidean algorithm; an h that is not a unit mod f (one with
    a common factor with f, a multiple of f included) raises
    ZeroDivisionError."""
    _, b = pdivmod(h, f)
    a, s0, s1 = f, (0,), (1,)
    while pdeg(b) > 0:
        q, r = pdivmod(a, b)
        a, b = b, r
        s0, s1 = s1, psub(s0, pmul(q, s1))
    if pdeg(b) < 0:
        raise ZeroDivisionError(f"{tuple(h)} is not a unit modulo {tuple(f)}")
    return pscale(s1, 1 / b[0])


def fmat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def fmat_det(rows):
    m = [list(r) for r in fmat(rows)]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def fmat_inv(rows):
    a = [list(r) for r in fmat(rows)]
    n = len(a)
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = 1 / a[col][col]
        a[col] = [x * f for x in a[col]]
        inv[col] = [x * f for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(r) for r in inv)


def crt_idempotents(t: TableAlgebra, theta, mu, factors):
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


def maximal_order_by_fractions(t: TableAlgebra):
    """(basis, idempotents, index, conductor, bad primes) of Lambda_0 in
    Fractions: the rows e, omega e, omega^2 e, ... of each component, the
    index 1 / |det| of the basis, ZB in Lambda_0 when the inverse of the
    basis is integral, and the conductor the lcm of the denominators of
    its entries.  A degenerate basis, a non-integral index and a ZB
    outside the order raise MaximalityUncertified with maximal_order's
    messages."""
    theta, mu = find_generator(t)
    factors = factor_rational(mu)
    rings, omegas = zip(*map(_ring_polynomial, factors))
    idems = crt_idempotents(t, theta, mu, factors)
    one = unit_vectors(t.rank)[0]
    rows = []
    for ring, (a0, a1, s), e in zip(rings, omegas, idems):
        omega = tuple(Fraction(a0, s) * x + Fraction(a1, s) * y for x, y in zip(one, theta))
        rows.append(e)
        for _ in range(pdeg(ring) - 1):
            rows.append(t.multiply(omega, rows[-1]))
    basis = tuple(rows)
    det = fmat_det(basis)
    if det == 0:
        raise MaximalityUncertified("degenerate maximal-order basis")
    index = 1 / abs(det)
    if index.denominator != 1:
        raise MaximalityUncertified(f"non-integral index {index}")
    if any(x.denominator != 1 for row in fmat_inv(basis) for x in row):
        raise MaximalityUncertified("ZB is not contained in the assembled order")
    conductor = lcm(*(Fraction(x).denominator for row in basis for x in row))
    return basis, idems, int(index), conductor, sorted(factorize(conductor))


# --- the character layer -----------------------------------------------------
#
# Polynomial helpers, real roots by Sturm sequences, exact real algebraic
# numbers and arithmetic in Q[x]/(f), on which the degree map, the
# rescaling of a basis and the character table below are built.


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


class FieldElt:
    """Element of Q[x]/(f) for a monic irreducible integer polynomial f,
    with the arithmetic the character layer needs."""

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

    def __eq__(self, other):
        other = self._lift(other)
        return self.f == other.f and self.c == other.c

    def __add__(self, other):
        other = self._lift(other)
        return FieldElt(self.f, tuple(x + y for x, y in zip(self.c, other.c)))

    def __mul__(self, other):
        other = self._lift(other)
        return FieldElt(self.f, pmul(self.c, other.c))

    def _lift(self, other):
        if isinstance(other, FieldElt):
            if other.f != self.f:
                raise ValueError("mixed fields")
            return other
        return FieldElt.constant(self.f, other)

    def inv(self):
        "The inverse, ``polys.pinv_mod``; zero raises ZeroDivisionError."
        return FieldElt(self.f, pinv_mod(self.c, self.f))

    def __truediv__(self, other):
        return self * self._lift(other).inv()

    def trace(self):
        "Field trace to Q: the trace of multiplication by self, sum_i [x^i] (self x^i)."
        total, elt = Fraction(0), self
        for i in range(pdeg(self.f)):
            total += elt.c[i]
            elt = elt * FieldElt(self.f, (0, 1))
        return total

    def is_rational(self):
        return all(x == 0 for x in self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return self.c[0]

    def __repr__(self):
        return f"FieldElt({self.f}, {self.c})"


class NonIntegralRescale(TableZetaError):
    def __init__(self, i, j, k, value):
        self.position = (i, j, k)
        self.value = value
        super().__init__(f"rescaled structure constant at {(i, j, k)} is {value}, not a nonnegative integer")


class BasisKindMismatch(TableZetaError):
    pass


def regular_representation(t: TableAlgebra, i: int):
    "Matrix M with M[k][j] = lambda[i][j][k]: column j expands b_i * b_j."
    if not 0 <= i < t.rank:
        raise IndexError(f"basis index {i} out of range for rank {t.rank}")
    return tuple(zip(*action_matrix(t.lam, unit_vectors(t.rank)[i])))


def perron_root(m):
    """Largest real eigenvalue of a nonnegative integer matrix, as an exact
    algebraic number (``AlgebraicNumber``; minimal polynomial = its
    irreducible factor)."""
    _, best = largest_real_root(factor_rational(squarefree_part(charpoly(m))))
    if best is None:
        raise ArithmeticError("matrix has no real eigenvalue")
    return best


def degree_map(t: TableAlgebra):
    """delta(b_i) for each basis element: the Perron-Frobenius eigenvalue of
    its regular representation.  delta extends to an algebra character."""
    check_ring(t.lam)
    return [perron_root(regular_representation(t, i)) for i in range(t.rank)]


def rescale(t: TableAlgebra, target) -> TableAlgebra:
    """Rescale the basis so that lambda[i][i*][0] becomes delta(b_i)
    ('standard') or 1 ('transitional').

    Toward transitional the scale factors are 1/sqrt(lambda[i][i*][0]), so
    each rescaled constant is checked to be the exact integer square root
    of lambda^2 * lambda[kk*0] / (lambda[ii*0] lambda[jj*0]).  Toward
    standard the factors are delta(b_i)/lambda[i][i*][0], evaluated
    exactly in the degree character's field; irrational results raise
    NonIntegralRescale (e.g. the E6 fusion ring, where delta(d) = 1+sqrt(3)
    makes the standard basis non-integral).  A table that check_ring
    refuses is refused first, with its error, toward either target.
    """
    check_ring(t.lam)
    if isinstance(target, str):
        target = BasisKind(target)
    if target not in (BasisKind.STANDARD, BasisKind.TRANSITIONAL):
        raise ValueError("rescale target must be standard or transitional")
    d = t.rank
    inv = t.involution
    pairing = [t.lam[i][inv[i]][0] for i in range(d)]
    if any(x <= 0 for x in pairing):
        raise NonIntegralRescale(0, 0, 0, "pseudo-inverse pairing must be positive")
    new = [[[None] * d for _ in range(d)] for _ in range(d)]
    if target is BasisKind.TRANSITIONAL:
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    sq = Fraction(t.lam[i][j][k] ** 2 * pairing[k], pairing[i] * pairing[j])
                    if sq.denominator != 1:
                        raise NonIntegralRescale(i, j, k, sq)
                    r = isqrt(int(sq))
                    if r * r != int(sq):
                        raise NonIntegralRescale(i, j, k, sq)
                    new[i][j][k] = r
    else:
        _, delta = degree_character_values(t)
        scale = [delta[i] * Fraction(1, pairing[i]) for i in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    val = (scale[i] * scale[j] / scale[k]) * t.lam[i][j][k]
                    if not val.is_rational():
                        raise NonIntegralRescale(i, j, k, val)
                    q = val.rational_value()
                    if q.denominator != 1 or q < 0:
                        raise NonIntegralRescale(i, j, k, q)
                    new[i][j][k] = int(q)
    out = TableAlgebra(
        rank=d,
        lam=tuple(tuple(tuple(row) for row in plane) for plane in new),
        involution=t.involution,
        basis_kind=target,
        names=t.names,
    )
    report = validate(out)
    if not report.ok:
        raise NonIntegralRescale(0, 0, 0, f"rescaled tensor invalid: {report}")
    return out


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


def basis_in_generator(t: TableAlgebra, theta):
    "q_i with b_i = q_i(theta): solves the power-basis linear system."
    d = t.rank
    pw = powers_of_generator(t, theta)
    gmat = tuple(tuple(Fraction(pw[k][i]) for i in range(d)) for k in range(d))
    # rows of gmat are the power vectors; q_i solves x * gmat = e_i, the
    # i-th row of the inverse
    return list(fmat_inv(gmat))


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


# --- genus ------------------------------------------------------------------


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


def genus_action_matrix(model: LocalModel, g):
    "y = x . T is the product g*x on coordinates (pi e1, e1, e0)."
    a, b, c = g
    pv = model.p * model.v
    return (
        (b, pv * a, 0),
        (a, b, 0),
        (0, 0, c),
    )


def triple_hnf(model: LocalModel, triple):
    "Numeric HNF rows for M(r,i,j), by hnf_square of (p^i, 0, r), (0, 1, 1), (0, 0, p^j)."
    r, i, j = triple
    p = model.p
    return hnf_square(((p**i, 0, r), (0, 1, 1), (0, 0, p**j)))


def complementary_lattice_by_products(model: LocalModel, triple, target=None):
    """Numeric {M : target} for M = M(r,i,j) and target Z_pB (None) or M
    itself, with each block of the congruence system the product A_g W of
    the action matrix of a row g of M with W."""
    p, K = model.p, 2 * model.m + 2
    m_rows = triple_hnf(model, triple)
    target_rows = m_rows if target is not None else triple_hnf(model, model.lam_triple)
    w = _membership_congruence_matrix(target_rows, K, p)
    cols = [mat_mul(genus_action_matrix(model, g), w) for g in m_rows]
    cmat = tuple(tuple(x for tw in cols for x in tw[i]) for i in range(3))
    return LatticeHNF(3, kernel_mod_pk(cmat, p, K))


def scaled_reduced_by_hnf(model: LocalModel, state, q):
    "A numeric digit-tree state with row q scaled by p, brought back to HNF by hnf_square."
    rows = [list(r) for r in state]
    rows[q] = [x * model.p for x in rows[q]]
    return [list(r) for r in hnf_square(tuple(tuple(r) for r in rows))]
