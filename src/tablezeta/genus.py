"""Local genus-zeta calculus for the rank-3 families at odd primes of odd
valuation.

The local setting: Q_p B = Q_p + K with K/Q_p ramified quadratic,
pi^2 = p*v for a unit v, maximal order Lambda_0 = Z_p + Z_p[pi].  All
lattices live on the ordered Z_p-basis (pi e_1, e_1, e_0) as row-HNF
matrices; the order Z_p B itself is M(0, m, 2m+1) where v_p(n) = 2m+1.

The intermediate lattices M(r,i,j) have HNF rows
(p^i, 0, r), (0, 1, 1), (0, 0, p^j) subject to the admissibility
conditions m+i+1 >= j and (for r != 0, k = v_p(r)) m+k >= i+j.  Two
admissible triples with the same (i, j) are isomorphic iff the congruence
beta*(r*s - p^(2i+1)*v) = r - s (mod p^j) has a solution, i.e. iff
gcd(r*s - p^(2i+1)*v, p^j) divides r - s.

A class is passed around as its triple (r, i, j) and only as that:
enumerate_genus_representatives returns triples, and complementary_lattice,
automorphism_measure_inverse and genus_zeta take one, refusing a triple
that is not admissible.  The lattices the calculus builds from a triple
are a LatticeHNF in numeric mode and an exponent matrix (entry = v_p
exponent, None = zero) in symbolic mode; decompose_domain takes those.

Zeta integrals are evaluated by decomposing a lattice into product
regions (unit cosets and full tails per component) via a digit tree on
its HNF coordinates; each region has a closed-form integral.  Counts of
regions are polynomials in p, so the same tree serves the symbolic mode;
all lattice-level computations in the numeric mode are independent exact
integer arithmetic, and the test suite ties the two together by counting
each lattice's residues modulo p^K Lambda_0 over its regions.

A genus zeta function sums its regions' integrals over one denominator
p^e (p-1)^c, read off the regions, in integers (numeric mode) or PPoly
(symbolic mode); after the factor mu(Aut M)^{-1} every coefficient is
divided by it exactly, and a remainder raises ArithmeticError.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .dirichlet import LocalRationalFunction
from .errors import (
    DepthExceeded,
    InputError,
    PrecisionUnstable,
    UnsupportedM,
)
from .exact import int_tuple, is_prime, lattice_det, valuation
from .modp import kernel_mod_pk, rref
from .polys import padd
from .ppoly import PM1, PPoly


@dataclass(frozen=True)
class LatticeHNF:
    """A full lattice by the rows of its Hermite normal form: upper
    triangular, positive diagonal, each entry reduced modulo its column's
    diagonal."""

    dim: int
    matrix: tuple  # rows

    def __post_init__(self):
        m = tuple(map(int_tuple, self.matrix))
        object.__setattr__(self, "matrix", m)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise InputError("matrix shape does not match dim")
        for i in range(self.dim):
            if m[i][i] <= 0:
                raise InputError("HNF diagonal must be positive")
            for j in range(self.dim):
                if j < i and m[i][j] != 0:
                    raise InputError("HNF must be upper triangular")
                if j > i and not 0 <= m[i][j] < m[j][j]:
                    raise InputError("HNF entries must be reduced modulo the column diagonal")

    @property
    def index(self):
        out = 1
        for i in range(self.dim):
            out *= self.matrix[i][i]
        return out


@dataclass(frozen=True)
class LocalModel:
    """p odd prime (None for symbolic-in-p), m >= 0 with v_p(n) = 2m+1,
    v the unit with pi^2 = p*v (sign-adjusted so +/-n = p^(2m+1) v with
    the sign matching n mod 4)."""

    p: object
    m: int
    v: object = None

    def __post_init__(self):
        if self.m < 0:
            raise InputError(f"m must be at least 0, got {self.m}")
        if self.p is not None:
            if self.p == 2 or not is_prime(self.p):
                raise InputError(f"local model needs an odd prime, got p = {self.p}")
            if self.v is None or self.v % self.p == 0:
                raise InputError("v must be a unit mod p")

    @property
    def symbolic(self):
        return self.p is None

    @property
    def lam_triple(self):
        return (0, self.m, 2 * self.m + 1)


def model_for_order(n, p) -> LocalModel:
    "Local model of the rank-3 family of order n at an odd prime p | n."
    if p == 2 or not is_prime(p) or n % p != 0:
        raise InputError(f"p = {p} must be an odd prime dividing n = {n}")
    k = valuation(n, p)
    if k % 2 == 0:
        raise UnsupportedM(f"v_p(n) = {k} is even; only odd valuations are supported")
    m = (k - 1) // 2
    sign = 1 if n % 4 == 1 else -1
    return LocalModel(p=p, m=m, v=sign * n // p**k)


@dataclass(frozen=True)
class RegionPart:
    kind: str  # "tail" | "coset"
    valuation: int
    depth: int = 0  # coset depth i >= 1; 0 for tails


@dataclass(frozen=True)
class Region:
    quadratic: RegionPart
    rational: RegionPart
    count: PPoly  # multiplicity as a polynomial in p


# --- admissibility, enumeration, classification ----------------------------


def admissible(model: LocalModel, r, i, j) -> bool:
    m = model.m
    if not (0 <= i <= m and 0 <= j <= 2 * m + 1 and r >= 0):
        return False
    if not model.symbolic and r >= model.p**j:
        return False
    if m + i + 1 < j:
        return False
    if r == 0:
        return True
    if model.symbolic:
        k = 0 if r == 1 else None
        if k is None:
            raise UnsupportedM("symbolic admissibility supports r in {0, 1}")
    else:
        k = valuation(r, model.p)
    return k < j and m + k >= i + j


def triple_matrix(model: LocalModel, triple):
    """Numeric HNF rows for M(r,i,j): the rows (p^i, 0, r), (0, 1, 1),
    (0, 0, p^j) are triangular, so reducing their last column mod p^j
    gives the HNF."""
    r, i, j = triple
    pj = model.p**j
    return ((model.p**i, 0, r % pj), (0, 1, 1 % pj), (0, 0, pj))


def lattices_isomorphic(model: LocalModel, t1, t2) -> bool:
    """Lambda-lattice isomorphism test for admissible triples: same (i, j)
    and a solution beta mod p^j of beta*(rs - p^(2i+1) v) = r - s, which
    exists iff gcd(rs - p^(2i+1) v, p^j) divides r - s."""
    if model.symbolic:
        raise UnsupportedM("isomorphism testing needs a concrete prime")
    r, i, j = t1
    s, i2, j2 = t2
    if (i, j) != (i2, j2):
        return False
    p = model.p
    return (r - s) % gcd(r * s - p ** (2 * i + 1) * model.v, p**j) == 0


def _class_order(t):
    "Sort key of the class lists: (i+j, j, r)."
    return (t[1] + t[2], t[2], t[0])


def enumerate_genus_representatives(model: LocalModel):
    """Canonical representatives (r, i, j) of the isomorphism classes of
    lattices between Z_p B and Lambda_0, ordered by (i+j, j, r): each the
    least triple of its class.  Classification is certified for m <= 1."""
    m = model.m
    if m > 1:
        raise UnsupportedM(f"genus classification is certified for m <= 1, got m = {m}")
    if model.symbolic:
        return _uniform_class_list(m)
    classes = []
    for t in _admissible_triples(model):
        for cls in classes:
            if lattices_isomorphic(model, cls[0], t):
                cls.append(t)
                break
        else:
            classes.append([t])
    return sorted((min(cls) for cls in classes), key=_class_order)


def _admissible_triples(model: LocalModel):
    "Every admissible triple (r, i, j) at a concrete prime, ordered by (i+j, j, r)."
    m, p = model.m, model.p
    out = []
    for i in range(m + 1):
        for j in range(m + i + 2):
            # the admissible r: 0, and p^k u with p not dividing u, u < p^(j-k), i+j-m <= k < j
            units = (p**k * u for k in range(max(0, i + j - m), j) for u in range(1, p ** (j - k)) if u % p)
            out.extend((r, i, j) for r in [0, *units])
    return sorted(out, key=_class_order)


def _uniform_class_list(m):
    "p-independent class representatives, valid for m <= 1."
    out = []
    for i in range(m + 1):
        for j in range(2 * m + 2):
            if m + i + 1 >= j:
                out.append((0, i, j))
            if j >= 1 and m >= i + j:
                out.append((1, i, j))
    return sorted(out, key=_class_order)


# --- numeric lattice machinery ---------------------------------------------


def _membership_congruence_matrix(target_rows, K, p):
    """W with: y in target  <=>  y . W == 0 (mod p^K), for targets containing
    p^K Lambda_0.  W = p^K T^(-1) = p^K adj(T) / det T in integers."""
    (a, b, c), (d, e, f), (g, h, i) = target_rows
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    pk = p**K
    if any(x * pk % det for row in adj for x in row):
        raise PrecisionUnstable("membership precision too low for the target lattice")
    return tuple(tuple(x * pk // det for x in row) for row in adj)


def complementary_lattice(model: LocalModel, triple, target=None):
    """{M : target} = {x in A : M x subseteq target} for M = M(r,i,j);
    target is Z_p B (the default) or M itself, which gives the multiplier
    order {M : M}.  An inadmissible triple raises InputError.  Numeric mode
    solves the divisibility system once, at precision p^K with K = 2m+2,
    and returns a LatticeHNF; symbolic mode returns the exponent matrix of
    the closed form for the representative shapes.

    Numeric mode: x is in {M : target} when x A_g W = 0 mod p^K for each
    row g of M, with A_g the action matrix of g and W = p^K T^(-1), where
    the rows of T span the target.  On the basis (pi e_1, e_1, e_0),
    g = (a, b, c) acts by the rows (b, pv a, 0), (a, b, 0), (0, 0, c), so
    the rows of A_g W are b W_0 + pv a W_1, a W_0 + b W_1 and c W_2, and
    the congruence system is written from them without forming A_g.  One
    precision suffices: x A_g W = 0 mod p^K holds exactly when
    x A_g T^(-1) is integral, a condition that does not involve K.  So
    every K at which W is integral gives the same lattice, and
    _membership_congruence_matrix raises PrecisionUnstable at a K where
    it is not."""
    if not admissible(model, *triple):
        raise InputError(f"M{triple} is not admissible at m = {model.m}")
    if target is not None and target != triple:
        raise UnsupportedM("complementary lattices target Z_pB or M itself")
    if model.symbolic:
        return _complement_symbolic(model, triple, target is not None)
    p, K = model.p, 2 * model.m + 2
    m_rows = triple_matrix(model, triple)
    target_rows = m_rows if target is not None else triple_matrix(model, model.lam_triple)
    w0, w1, w2 = _membership_congruence_matrix(target_rows, K, p)
    pv = p * model.v
    # row k of the system is row k of A_g W for each row g of M in turn
    cmat = (
        tuple(b * x + pv * a * y for a, b, _ in m_rows for x, y in zip(w0, w1)),
        tuple(a * x + b * y for a, b, _ in m_rows for x, y in zip(w0, w1)),
        tuple(c * z for _, _, c in m_rows for z in w2),
    )
    return LatticeHNF(3, kernel_mod_pk(cmat, p, K))


# --- symbolic lattice shapes ------------------------------------------------


def _complement_symbolic(model: LocalModel, triple, multiplier):
    """Exponent matrix (entry = v_p exponent, None = zero) of {M : Z_pB},
    or of {M : M} when multiplier is set."""
    m = model.m
    r, i, j = triple
    if not multiplier:
        if r == 0:
            a = max(m, 2 * m - i)
            beta = max(m - i, 2 * m + 1 - j)
            return _sym_reduce(
                [
                    [a, None, None],
                    [None, beta, beta],
                    [None, None, 2 * m + 1],
                ]
            )
        if r == 1:
            a = max(m, 2 * m - i - j)
            kappa = a + i + 1
            return _sym_reduce(
                [
                    [a, kappa, kappa],
                    [None, 2 * m + 1, None],
                    [None, None, 2 * m + 1],
                ]
            )
        raise UnsupportedM("symbolic complements support r in {0, 1}")
    # {M : M} is the order M(0, a, j): a = max(i, j-i-1) for r = 0, and
    # M(0,1,1) for M(1,0,1) at m = 1
    if r == 0:
        a = max(i, j - i - 1)
    elif r == 1 and (i, j) == (0, 1) and m == 1:
        a = 1
    else:
        raise UnsupportedM("symbolic multiplier implemented for the m <= 1 representatives")
    return [[a, None, None], [None, 0, 0 if j > 0 else None], [None, None, j]]


def _sym_reduce(mat):
    "HNF reduction on exponent matrices: kill entries at or above the column diagonal."
    out = [row[:] for row in mat]
    # reduce column 2 of row 1 against row 2
    if out[0][1] is not None and out[0][1] >= out[1][1]:
        shift = out[0][1] - out[1][1]
        out[0][1] = None
        out[0][2] = _sym_sub(out[0][2], None if out[1][2] is None else out[1][2] + shift)
    # reduce column 3 against row 3
    for r in (0, 1):
        if out[r][2] is not None and out[r][2] >= out[2][2]:
            out[r][2] = None
    return out


def _sym_sub(a, b):
    if b is None:
        return a
    if a is None:
        return b
    if a == b:
        raise PrecisionUnstable("ambiguous symbolic cancellation at equal exponents")
    return min(a, b)


# --- the digit tree: product-region decomposition ---------------------------


def _scaled_reduced(model, state, q):
    """Scale row q by p and restore reduced form; returns a new matrix,
    which shares the rows other than q with state.  Numeric: the scaled
    matrix is still triangular, and the entries above row q's new
    diagonal stay reduced, so only row q is reduced, against the rows
    below it; that gives the (unique) HNF."""
    if model.symbolic:
        mat = [row[:] for row in state]
        mat[q] = [None if x is None else x + 1 for x in mat[q]]
        return _sym_reduce(mat)
    rows = list(state)
    row = rows[q] = [x * model.p for x in state[q]]
    for k in range(q + 1, len(rows)):
        f = row[k] // rows[k][k]
        if f:
            for c in range(k, len(rows)):
                row[c] -= f * rows[k][c]
    return rows


def _to_exps(model, mat):
    if model.symbolic:
        return mat
    p = model.p
    return [[None if x == 0 else valuation(x, p) for x in row] for row in mat]


def _layers(exps):
    """Least layer of each row's leading digit, row q -> (quadratic, rational),
    None where the row has no digit in that component.  On the basis
    (pi e_1, e_1, e_0) a pi e_1 digit at exponent e sits at quadratic layer
    2e+1 and an e_1 digit at 2e; the e_0 digit at exponent e is rational
    layer e."""
    (e00, e01, e02), (_, e11, e12), (_, _, e22) = exps
    r0 = 2 * e00 + 1 if e01 is None else min(2 * e00 + 1, 2 * e01)
    return ((r0, e02), (2 * e11, e12), (None, e22))


def decompose_domain(model: LocalModel, lattice):
    """Disjoint product-region decomposition of a lattice L: L is
    partitioned into pieces that are, per component, either a full tail
    pi^w R / p^w Z_p or a multiplicative unit coset of given valuation and
    depth.  Region counts are polynomials in p.  L is a LatticeHNF
    (numeric mode) or an exponent matrix (symbolic mode).

    The digit tree is complete on the lattices genus_zeta passes it, the
    complementary lattices {M : Z_pB} of the class representatives at
    m <= 1 (the test suite checks each against its residue counts modulo
    p^K Lambda_0), and on Lambda_0 and Z_pB.
    It is not complete on every sublattice of Lambda_0 of p-power index,
    and it refuses the others in two ways:

    * PrecisionUnstable, for a digit collision: two digits that the tree
      needs to be distinct coincide (at p = 3 the rows (1, 0, 1),
      (0, 3, 1), (0, 0, 3): "digit collision at Z layer 0"), or a pending
      offset collides with a frontier digit.  No precision is involved;
      the error is the one the calculus raises for a lattice it cannot
      resolve.  Most lattices outside the ones genus_zeta passes end this
      way: 10,912 of the 15,444 HNFs with diagonal 3^a (a <= 2) or 5^a
      (a <= 1) at m in {0, 1}, v = +-1 (2,644 more end in DepthExceeded);
    * DepthExceeded, for a tree that does not end (at p = 3, m = 0 the
      rows (9, 0, 0), (0, 1, 0), (0, 0, 1)).
    """
    state = [row[:] for row in lattice] if model.symbolic else [list(r) for r in lattice.matrix]
    bound = 2 * (2 * model.m + 1) + 2
    regions = []
    _split(model, state, (None, None), (None, None), PPoly(1), regions, bound, 0)
    return regions


def _split(model, state, lead, pend, count, out, bound, depth):
    """One node of the digit tree on the lattice ``state``; component c is
    0 (quadratic) or 1 (rational).  ``lead[c]`` is the layer of the unit
    digit that leads component c, so the piece is a unit coset there, or
    None while component c is still a full tail.  ``pend[c]`` is the least
    layer of a unit digit that a digit fixed in the other component put
    into component c above its frontier; it leads c once every layer below
    it is fixed to zero.

    Fixing the frontier digit of row q splits the node in two: the zero
    branch keeps the x whose digit is 0 and the unit branch the p - 1
    translates whose digit is a unit.  Both are cosets of the lattice with
    row q scaled by p, so they recurse on one scaled lattice and differ
    only in lead, pend and count."""
    if depth > 3 * bound + 9:
        raise DepthExceeded("region decomposition did not reach a product box")
    exps = _to_exps(model, state)
    layers = _layers(exps)
    front = [min(row[c] for row in layers if row[c] is not None) for c in (0, 1)]
    # resolve pending unit offsets that now lead their component
    lead, pend = list(lead), list(pend)
    for c in (0, 1):
        if lead[c] is None and pend[c] is not None and pend[c] < front[c]:
            lead[c], pend[c] = pend[c], None
    if front[0] + front[1] == exps[0][0] + exps[1][1] + exps[2][2]:
        parts = [RegionPart("tail", f) if l is None else RegionPart("coset", l, f - l) for l, f in zip(lead, front)]
        out.append(Region(*parts, count))
        return
    if None not in lead:
        # both components led but the box is not yet a product: absorb the
        # next interior digit over all p values
        _, q = min((min(x for x in row if x is not None), q) for q, row in enumerate(layers))
        _split(model, _scaled_reduced(model, state, q), lead, pend, count * PPoly.var(), out, bound, depth + 1)
        return
    # fix the lowest frontier digit of a component that no unit digit leads yet
    layer, c = min((front[c], c) for c in (0, 1) if lead[c] is None)
    rows = [q for q in range(3) if layers[q][c] == layer]
    if len(rows) != 1:
        raise PrecisionUnstable(f"digit collision at {'RZ'[c]} layer {layer}")
    if pend[c] == layer:
        raise PrecisionUnstable("pending offset collides with a frontier digit")
    q = rows[0]
    scaled = _scaled_reduced(model, state, q)
    _split(model, scaled, lead, pend, count, out, bound, depth + 1)
    # the unit digit leads c; row q's digit in the other component leads that
    # one too when it sits at its frontier, and waits as a pending offset above it
    o, other = 1 - c, layers[q][1 - c]
    unit_lead, unit_pend = lead[:], pend[:]
    unit_lead[c] = layer
    if lead[o] is None and other is not None:
        if other == front[o]:
            if [q2 for q2 in range(3) if layers[q2][o] == other] != [q]:
                raise PrecisionUnstable(f"joint digit collision at the {('quadratic', 'rational')[o]} frontier")
            unit_lead[o] = other
        else:
            unit_pend[o] = other if pend[o] is None else min(pend[o], other)
    _split(model, scaled, unit_lead, unit_pend, count * PM1, out, bound, depth + 1)


# --- region integrals and genus zeta functions ------------------------------


def _region_sum(model, regions):
    """Sum of the regions' integrals as (num, C): the integral is
    num(t) / (C (1-t)^2), num has integer (numeric) or PPoly (symbolic)
    coefficients, and C = p^e (p-1)^c is one denominator for every region.

    Per component a tail pi^w R (or p^w Z_p) integrates to t^w zeta and a
    unit coset of valuation w and depth d to t^w / (p^(d-1) (p-1)); over
    (1-t)^2, with zeta = 1/(1-t), a region with cosets S contributes
    count * t^(sum w) * (1-t)^#S / (p^sum_S(d-1) (p-1)^#S).  So e and c
    are the largest sum_S(d-1) and #S over the regions, and the region's
    numerator term carries p^(e - sum_S(d-1)) (p-1)^(c - #S).  The powers
    p^0 .. p^e and (p-1)^0 .. (p-1)^c are taken once per call, each from
    the one before."""
    p, zero, one = (PPoly.var(), PPoly(0), PPoly(1)) if model.symbolic else (model.p, 0, 1)
    cosets = [[part for part in (reg.quadratic, reg.rational) if part.kind == "coset"] for reg in regions]
    depths = [sum(part.depth - 1 for part in parts) for parts in cosets]
    e, c = max(depths), max(map(len, cosets))
    p_pow, q_pow = [one], [one]
    for _ in range(e):
        p_pow.append(p_pow[-1] * p)
    for _ in range(c):
        q_pow.append(q_pow[-1] * (p - 1))
    num = [zero] * (max(reg.quadratic.valuation + reg.rational.valuation for reg in regions) + 3)
    for reg, parts, d in zip(regions, cosets, depths):
        count = reg.count if model.symbolic else reg.count(p)
        term = count * p_pow[e - d] * q_pow[c - len(parts)]
        texp = reg.quadratic.valuation + reg.rational.valuation
        for k, mult in enumerate(((1,), (1, -1), (1, -2, 1))[len(parts)]):
            num[texp + k] = num[texp + k] + term * mult
    return num, p_pow[e] * q_pow[c]


def automorphism_measure_inverse(model: LocalModel, triple):
    """mu(Aut M)^{-1} = [Lambda_0^x : {M:M}^x] for M = M(r,i,j), in the
    Haar measure with mu(Lambda_0^x) = 1; both modes take the multiplier
    order {M:M} from complementary_lattice.  Numeric: unit counting in the
    finite quotient at p^(2m+2), where the units of a lattice L are counted
    by inclusion-exclusion from the ranks mod p of L's b- and c-columns (see
    ``_unit_count``: that rank is the p-exponent of the index of L cut by
    b = 0 or c = 0 mod p in L); symbolic: {M:M} is some M(0, a, b), whose
    units have index p^a, times p^(b-1) (p-1) when b >= 1."""
    order = complementary_lattice(model, triple, target=triple)
    if model.symbolic:
        a, b = order[0][0], order[2][2]
        p = PPoly.var()
        out = p**a
        if b >= 1:
            out = out * p ** (b - 1) * PM1
        return out
    return _unit_index(model, order.matrix, 2 * model.m + 2)


def _unit_index(model, order_rows, K):
    p = model.p
    total_units_ambient = p ** (3 * K - 2) * (p - 1) ** 2  # _unit_count of Lambda_0
    units = _unit_count(model, order_rows, K)
    ratio = Fraction(total_units_ambient, units)
    if ratio.denominator != 1:
        raise PrecisionUnstable("unit index is not integral")
    return int(ratio)


def _unit_count(model, rows, K):
    """Number of classes of L/p^K Lambda_0 that are units of Lambda_0, for
    L given by its HNF rows with p^K Lambda_0 in L and K >= 1.

    x = (a, b, c) is a unit exactly when b and c are nonzero mod p, so the
    count is full - non_b - non_c + non_bc by inclusion-exclusion over the
    sublattices L_S = {x in L : x_s = 0 mod p for s in S}.  L_S is the
    kernel of L -> F_p^S, x -> (x_s mod p), whose image is spanned by the
    rows' S-columns mod p (L contains p Lambda_0, so reducing its rows
    loses nothing); hence [L : L_S] = p^(rank mod p of the S-columns), and
    L_S has [L : p^K Lambda_0] / p^rank classes."""
    p = model.p
    full = p ** (3 * K) // lattice_det(rows)

    def classes(cols):
        return full // p ** len(rref([[row[c] for c in cols] for row in rows], p))

    return full - classes((1,)) - classes((2,)) + classes((1, 2))


def genus_zeta(model: LocalModel, triple, muinv=None) -> LocalRationalFunction:
    """Z(M, Lambda; s) = mu(Aut M)^{-1} (Lambda:M)^{-s} * integral over
    A^x of the characteristic function of {M:Lambda} times |x|^s, for
    M = M(r,i,j).  ``muinv`` is mu(Aut M)^{-1} when the caller has it
    already."""
    r, i, j = triple
    comp = complementary_lattice(model, triple)
    num, den = _region_sum(model, decompose_domain(model, comp))
    if muinv is None:
        muinv = automorphism_measure_inverse(model, triple)
    shift = (3 * model.m + 1) - (i + j)
    if any(x != 0 for x in num[:shift]):
        raise ArithmeticError("index shift below t^0")
    coeffs = [_divide_exact(x * muinv, den) for x in num[shift:]]
    return LocalRationalFunction(None if model.symbolic else model.p, tuple(coeffs), (1, -2, 1))


def _divide_exact(x, den):
    "x / den for genus sums, which must clear every measure denominator; constants as int."
    if isinstance(x, PPoly):
        q = x.divide_exact(den)
        return q if q.degree() > 0 else q.c[0]
    q, r = divmod(x, den)
    if r:
        raise ArithmeticError(f"non-integral zeta coefficient {Fraction(x, den)}")
    return q


def total_local_zeta(model: LocalModel) -> LocalRationalFunction:
    "Sum of the genus zeta functions over the class representatives, reduced."
    return sum_genus_zetas([genus_zeta(model, rep) for rep in enumerate_genus_representatives(model)])


def sum_genus_zetas(zetas) -> LocalRationalFunction:
    "Sum of genus zeta functions over (1-t)^2, reduced: the local zeta of their genus."
    return reduce(_add_same_den, zetas).reduced()


def _add_same_den(a: LocalRationalFunction, b: LocalRationalFunction) -> LocalRationalFunction:
    if a.den != b.den:
        raise ArithmeticError(f"genus zeta functions over different denominators {a.den} and {b.den}")
    return LocalRationalFunction(a.p, padd(a.num, b.num), a.den)
