"""Linear algebra over F_p and Z/p^K, the roots and factors of a
polynomial mod p, the maximal ideals of Lambda / p Lambda and the socle
test of whether Lambda_p is Gorenstein.

Vectors are tuples of integers reduced into [0, p); a subspace is the
tuple of its reduced row echelon basis (leading entry 1, zeros above and
below every pivot, rows ordered by pivot), which is canonical, so two
subspaces are equal exactly when their bases are.  Algebras are given by
a multiplication tensor lam[i][j][k] (b_i b_j = sum_k lam[i][j][k] b_k)
that is commutative and associative with identity b_0.

Over Z/p^K every nonzero entry is p^v times a unit, so an entry of least
valuation divides every other one: elimination with such pivots needs no
gcd steps (see ``kernel_mod_pk``).

The maximal ideals of A = Lambda / p Lambda come from two facts about a
commutative F_p-algebra.  Frobenius x -> x^p is F_p-linear, and x is
nilpotent exactly when x^(p^k) = 0 for p^k >= dim A, so the radical R is
the kernel of Frobenius^k.  A / R is a product of finite fields F_(p^f),
one per maximal ideal, and its Frobenius-fixed part {x : x^p = x mod R}
is the product of their prime fields F_p; its dimension over R is the
number of fields.  An element t of that fixed part takes a value
lambda_i in F_p on each field, so each maximal ideal is
R + sum_t (t - lambda_i(t)) A over a spanning set of the fixed part.
The fields are separated by splitting one candidate ideal J after
another by the values of one t after another: J + (t - lambda) A is kept
for each lambda that leaves it proper.  The values are among the roots
in F_p of the characteristic polynomial of multiplication by t, from the
scan of F_p that ``factor`` starts with (``_linear_part``); a root that
makes the ideal all of A is taken on no field of J.
"""

from . import algebra
from .algebra import action_matrix, unit_vectors
from .exact import charpoly, hnf_square, mat_mul


class MaximalIdeal:
    """A maximal ideal m of A = Lambda / p Lambda: ``f``, its residue degree
    [A : m] over F_p; ``basis``, its reduced row echelon basis; and
    ``generators``, elements of m that generate it as an ideal.  These are
    given, or, for ``source`` = (lam, p), searched for by
    ``_ideal_generators`` when first read: a walk and the socle test read
    them, a count of residue degrees does not."""

    __slots__ = ("f", "basis", "_generators", "_source")

    def __init__(self, f, basis, generators=None, source=None):
        self.f, self.basis, self._generators, self._source = f, basis, generators, source

    @property
    def generators(self):
        if self._generators is None:
            lam, p = self._source
            self._generators = _ideal_generators(lam, self.basis, p)
        return self._generators


def rref(rows, p):
    "The reduced row echelon basis of the span of ``rows`` over F_p."
    basis = {}  # pivot column -> row with 1 there and 0 in every other pivot column
    for row in rows:
        v = [x % p for x in row]
        for c, b in basis.items():
            x = v[c]
            if x:
                v = [(vi - x * bi) % p for vi, bi in zip(v, b)]
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        v = [x * inv % p for x in v]
        for k, b in basis.items():
            x = b[c]
            if x:
                basis[k] = [(bi - x * vi) % p for bi, vi in zip(b, v)]
        basis[c] = v
    return tuple(tuple(basis[c]) for c in sorted(basis))


def pivots(basis):
    "The pivot column of each row of a reduced row echelon basis."
    return tuple(next(i for i, x in enumerate(row) if x) for row in basis)


def kernel(rows, p):
    "A basis of {x : sum_i x_i rows[i] = 0} over F_p."
    n = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [tuple(row) + tuple(1 if j == i else 0 for j in range(n)) for i, row in enumerate(rows)]
    return tuple(row[width:] for row in rref(aug, p) if not any(row[:width]))


def kernel_mod_pk(rows, p, K):
    """The lattice {x in Z^n : sum_i x_i rows[i] = 0 mod p^K} in HNF.

    Elimination over Z/p^K: each step takes as pivot an entry of least
    p-valuation among the rows not used yet, p^v u with u a unit, and
    clears its column from those rows, which it divides.  The row
    operations make a matrix U of determinant 1 with U C equal, after
    column operations, to a diagonal of the pivots p^(v_r) u_r (a row left
    at zero mod p^K has v_r = K).  So x C = 0 mod p^K exactly when
    x U^(-1) has its r-th coordinate in p^(K - v_r) Z, and the lattice is
    spanned by the rows p^(K - v_r) U_r and p^K Z^n."""
    pk = p**K
    n = len(rows)
    a = [[x % pk for x in row] for row in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    left = list(range(n))
    out = [tuple(pk * (i == j) for j in range(n)) for i in range(n)]
    while left:
        best = None  # (valuation, row, column) of the pivot
        for r in left:
            for c, x in enumerate(a[r]):
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, r, c)
        if best is None:
            break
        v, r, c = best
        left.remove(r)
        pv = p**v
        inv = pow(a[r][c] // pv, -1, pk)
        for s in left:
            if a[s][c]:
                f = a[s][c] // pv * inv % pk
                a[s] = [(x - f * y) % pk for x, y in zip(a[s], a[r])]
                u[s] = [(x - f * y) % pk for x, y in zip(u[s], u[r])]
        out.append(tuple(p ** (K - v) * x for x in u[r]))
    out.extend(tuple(u[r]) for r in left)
    return hnf_square(tuple(out))


def multiply(lam, u, v, p):
    "The product of two coefficient vectors in Lambda / p Lambda."
    return tuple(x % p for x in algebra.multiply(lam, u, v))


def _power(lam, x, e, p):
    r = len(lam)
    out = (1,) + (0,) * (r - 1)
    while e:
        if e & 1:
            out = multiply(lam, out, x, p)
        e >>= 1
        if e:
            x = multiply(lam, x, x, p)
    return out


# Polynomials over F_p: ascending coefficient lists reduced mod p with no
# trailing zeros; [] is the zero polynomial.


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a, b, p):
    "(q, r) with a = q b + r and deg r < deg b, for b != 0."
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, x in enumerate(b):
            r[shift + i] = (r[shift + i] - c * x) % p
        _fp_trim(r)
    return q, r


def _fp_gcd(a, b, p):
    "The monic gcd of a != 0 and b."
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _power_mod(f, e, p, base=None):
    """base^e mod f by d coefficients, for e >= 1, a monic f of degree
    d >= 2 and a residue base (x if None) reduced mod p: the one squaring
    kernel of ``root_count`` and ``factor``.  Each bit of e squares, and a
    1 bit then multiplies by x ("1") or, as a step of its own, by the base
    ("b").  The terms x^d ... x^(2d-2) of a square or product become their
    residues mod f, from one table whose first row also shifts by x."""
    d = len(f) - 1
    table = [[-x % p for x in f[:d]]]  # row j: x^(d+j) mod f
    for _ in range(d - 2):
        row = table[-1]
        table.append([(low + row[-1] * x) % p for low, x in zip([0] + row[:-1], table[0])])
    out, steps = base or [0, 1] + [0] * (d - 2), bin(e)[3:].replace("1", "0b" if base else "1")
    for step in steps:
        full = [0] * (2 * d - 1)
        if step == "b":
            for i, x in enumerate(out):
                if x:
                    for j, y in enumerate(base):
                        full[i + j] += x * y
        else:
            for i, x in enumerate(out):
                if x:
                    full[2 * i] += x * x
                    x += x  # each x_i x_j with i < j comes twice
                    for j in range(i + 1, d):
                        full[i + j] += x * out[j]
        out = full[:d]
        for high, row in zip(full[d:], table):
            if high:
                out = [o + high * x for o, x in zip(out, row)]
        if step == "1":  # times x: shift up, x^d -> its residue
            top = out[-1]
            out = [low + top * x for low, x in zip([0] + out[:-1], table[0])]
        out = [x % p for x in out]
    return out


def _x_power_minus_x(f, e, p):
    "x^e - x mod f, trimmed, for a monic f of degree >= 2 reduced mod p."
    h = _power_mod(f, e, p)
    h[1] = (h[1] - 1) % p
    return _fp_trim(h)


def root_count(poly, p):
    """The number of distinct roots in F_p of a monic integer polynomial f
    of degree d >= 1, given by ascending coefficients: deg gcd(f, x^p - x)
    mod p, since x^p - x is the product of the x - a over F_p."""
    f = [x % p for x in poly]
    if len(f) < 3:
        return 1
    a, b = f, _x_power_minus_x(f, p, p)
    while b:  # Euclid, as in _fp_gcd, but only the degree is needed
        a, b = b, _fp_divmod(a, b, p)[1]
    return len(a) - 1


def _linear_part(poly, p):
    """(roots, rest) for a polynomial f that is monic mod the prime p,
    given by ascending integer coefficients: its distinct roots in F_p,
    ascending, and f mod p with every factor x - a divided out, by its
    ascending coefficients.  A scan of F_p: a synthetic division by x - a
    at each a, repeated while it leaves 0."""
    f, roots = _fp_trim([x % p for x in poly]), []
    for a in range(p):
        while len(f) > 1:
            q = [f[-1]]
            for x in reversed(f[:-1]):
                q.append((q[-1] * a + x) % p)
            if q.pop():
                break
            f = q[::-1]
            if roots[-1:] != [a]:
                roots.append(a)
    return roots, f


def factor(poly, p):
    """The distinct monic irreducible factors mod the prime p of a
    polynomial f that is monic mod p, squarefree or not, given by ascending
    integer coefficients: each once, by its ascending coefficients mod p,
    ordered by degree and then by those.

    The linear factors come from the scan of F_p in ``_linear_part``.  The
    rest is factored by degree (Cohen, A Course in Computational Algebraic
    Number Theory, GTM 138, 3.4): x^(p^d) - x is the product of the monic
    irreducibles of degree dividing d, so once those of degree < d are
    divided out of f, gcd(f, x^(p^d) - x) is the product of those of degree
    d.  A rest of degree < 2(d + 1) is irreducible or 1."""
    roots, f = _linear_part(poly, p)
    out = [[-a % p, 1] for a in roots]
    d = 1
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        g = _fp_gcd(f, _x_power_minus_x(f, p**d, p), p)
        if len(g) > 1:
            out += _equal_degree(g, d, p)
            while len(g) > 1:
                f = _fp_divmod(f, g, p)[0]
                g = _fp_gcd(f, g, p)
    if len(f) > 1:
        out.append(f)
    return sorted(out, key=lambda g: (len(g), g))


def _equal_degree(g, d, p):
    """The irreducible factors of a monic g mod p that is a product of
    distinct ones of degree d (g itself if d = deg g), by Cantor-Zassenhaus
    (Cohen, GTM 138, 3.4.6): on each factor's field F_(p^d), a^e is 0 or
    +-1 for e = (p^d - 1)/2 at odd p and 0 or 1 for e = p^d - 1 at p = 2,
    and gcd(g, a^e - 1) takes the factors where it is 1.  The trials a
    have the base-p digits of p, p + 1, ... as coefficients; one of them
    is 1 at one factor and 0 at the rest, so one splits g."""
    n = len(g) - 1
    for k in range(p, p**n if n > d else p):
        a = [k // p**i % p for i in range(n)]
        value = _power_mod(g, (p**d - 1) // (2 if p > 2 else 1), p, a)
        value[0] = (value[0] - 1) % p
        u = _fp_gcd(g, _fp_trim(value), p)
        if 1 < len(u) <= n:
            return _equal_degree(u, d, p) + _equal_degree(_fp_divmod(g, u, p)[0], d, p)
    return [g]


def maximal_ideals(lam, p):
    """The maximal ideals of Lambda / p Lambda with their residue degrees,
    ordered by their bases; the generators of each are searched for when
    first read (``MaximalIdeal``)."""
    r = len(lam)
    unit = unit_vectors(r)
    frob = tuple(_power(lam, e, p, p) for e in unit)  # row i: b_i^p
    frob_k, reach = frob, p
    while reach < r:
        frob_k, reach = tuple(tuple(x % p for x in row) for row in mat_mul(frob_k, frob)), reach * p
    radical = rref(kernel(frob_k, p), p)
    # x is in the fixed part when x (F - 1) + y R = 0 for some y
    moved = [tuple((x - u) % p for x, u in zip(row, e)) for row, e in zip(frob, unit)]
    fixed = [row[:r] for row in kernel(moved + list(radical), p)]
    fields = len(rref(list(radical) + fixed, p)) - len(radical)
    ideals = [radical]
    for t in fixed:
        if len(ideals) == fields:
            break
        if not any(t[1:]):  # a scalar takes one value on every field: it splits nothing
            continue
        # the values of t on the fields are roots of its characteristic polynomial
        chi = charpoly(action_matrix(lam, t))
        values = _linear_part(chi, p)[0]
        split = []
        for ideal in ideals:
            left = r - len(ideal)  # dim A/ideal, shared out among the pieces
            for value in values:
                shifted = ((t[0] - value) % p,) + tuple(t[1:])
                piece = rref(ideal + action_matrix(lam, shifted), p)
                if len(piece) < r:
                    split.append(piece)
                    left -= r - len(piece)
                    if not left:
                        break
        ideals = split
    return tuple(MaximalIdeal(r - len(m), m, source=(lam, p)) for m in sorted(ideals))


def socle_dimension(lam, m, p):
    """The dimension over F_p of Ann(m) = {x : x g = 0 for every generator
    g of m} in Lambda / p Lambda: the kernel of the action matrices of m's
    generators set side by side (row l of each is g b_l)."""
    mats = [action_matrix(lam, g) for g in m.generators]
    return len(kernel([tuple(x for mat in mats for x in mat[l]) for l in range(len(lam))], p))


def is_gorenstein(lam, ideals, p):
    """True iff Lambda_p = Z_p Lambda is Gorenstein, given the maximal ideals
    of A = Lambda / p Lambda (``maximal_ideals(lam, p)``): iff
    dim Ann(m) = f(m) for every m.

    p is a non-zero-divisor on Lambda_p, so Lambda_p is Gorenstein exactly
    when A is (Bruns and Herzog, Cohen-Macaulay Rings, ch. 3).  A is
    Artinian, the product of its localizations A_m, and m is m A_m times
    the other factors, so Ann(m) is the socle of A_m.  The Artinian local
    ring A_m is Gorenstein exactly when its socle is simple, a vector space
    of dimension 1 over A/m, which has dimension f(m) over F_p."""
    return all(socle_dimension(lam, m, p) == m.f for m in ideals)


def _ideal_generators(lam, basis, p):
    """A few members of the basis of an ideal that generate it: each is
    the first that enlarges the ideal generated so far the most, and a
    round stops at the first that completes it."""
    gens, span = [], ()
    while len(span) < len(basis):
        best = None
        for g in basis:
            grown = rref(span + action_matrix(lam, g), p)
            if best is None or len(grown) > len(best[0]):
                best = grown, g
                if len(grown) == len(basis):
                    break
        span, g = best
        gens.append(g)
    return tuple(gens)
