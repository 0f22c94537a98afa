"""Linear algebra over F_p and Z/p^K, and the maximal ideals of
Lambda / p Lambda.

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
in F_p of the characteristic polynomial of multiplication by t; a root
that makes the ideal all of A is taken on no field of J.
"""

from collections import namedtuple

from .exact import charpoly, hnf_square, mat_mul

# f: residue degree [A : m] over F_p; basis: the reduced row echelon basis
# of m; generators: members of the basis that generate m as an ideal
MaximalIdeal = namedtuple("MaximalIdeal", "f basis generators")


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
    r = len(lam)
    out = [0] * r
    for i, ui in enumerate(u):
        if ui:
            plane = lam[i]
            for j, vj in enumerate(v):
                if vj:
                    c = ui * vj
                    for k, x in enumerate(plane[j]):
                        if x:
                            out[k] += c * x
    return tuple(x % p for x in out)


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


def _horner(poly, x, p):
    "The value at x mod p of a polynomial given by ascending coefficients."
    out = 0
    for c in reversed(poly):
        out = (out * x + c) % p
    return out


def maximal_ideals(lam, p):
    """The maximal ideals of Lambda / p Lambda with their residue degrees,
    ordered by their bases."""
    r = len(lam)
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
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
        # the values of t on the fields are roots of its characteristic polynomial
        chi = charpoly(tuple(multiply(lam, e, t, p) for e in unit))
        values = [x for x in range(p) if _horner(chi, x, p) == 0]
        split = []
        for ideal in ideals:
            left = r - len(ideal)  # dim A/ideal, shared out among the pieces
            for value in values:
                shifted = ((t[0] - value) % p,) + tuple(t[1:])
                piece = rref(list(ideal) + [multiply(lam, shifted, e, p) for e in unit], p)
                if len(piece) < r:
                    split.append(piece)
                    left -= r - len(piece)
                    if not left:
                        break
        ideals = split
    return tuple(MaximalIdeal(r - len(m), m, _ideal_generators(lam, m, p)) for m in sorted(ideals))


def _ideal_generators(lam, basis, p):
    """A few members of the basis of an ideal that generate it: each is
    the one that enlarges the ideal generated so far the most."""
    unit = [tuple(int(i == j) for j in range(len(lam))) for i in range(len(lam))]
    gens, span = [], ()
    while len(span) < len(basis):
        span, g = max(
            ((rref(list(span) + [multiply(lam, g, e, p) for e in unit], p), g) for g in basis),
            key=lambda pair: len(pair[0]),
        )
        gens.append(g)
    return tuple(gens)
