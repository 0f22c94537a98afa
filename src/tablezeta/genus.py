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

Zeta integrals are evaluated by decomposing a lattice into product
regions (unit cosets and full tails per component) via a digit tree on
its HNF coordinates; each region has a closed-form integral.  Counts of
regions are polynomials in p, so the same tree serves the symbolic mode;
all lattice-level computations in the numeric mode are independent exact
integer arithmetic, and residue-count certificates tie the two together.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .dirichlet import LocalRationalFunction
from .errors import (
    DepthExceeded,
    InputError,
    NotFullRank,
    PrecisionUnstable,
    UnsupportedM,
)
from .exact import hnf_square, is_prime, lattice_det, mat_mul, valuation
from .ideals import LatticeHNF
from .modp import kernel_mod_pk, rref
from .polys import padd
from .ppoly import PM1, PFrac, PPoly


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
class IntermediateLattice:
    params: tuple  # (r, i, j)
    hnf: object  # LatticeHNF (numeric) or exponent matrix (symbolic)


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
    "Numeric HNF rows for M(r,i,j)."
    r, i, j = triple
    p = model.p
    rows = ((p**i, 0, r), (0, 1, 1), (0, 0, p**j))
    return hnf_square(rows)


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


def enumerate_genus_representatives(model: LocalModel, classify=True):
    """Canonical representatives of the isomorphism classes of lattices
    between Z_p B and Lambda_0, ordered by (i+j, j, r).  Classification is
    certified for m <= 1 only; classify=False lists all admissible triples."""
    m = model.m
    if classify and m > 1:
        raise UnsupportedM(f"genus classification is certified for m <= 1, got m = {m}")
    if model.symbolic:
        if not classify:
            raise UnsupportedM("symbolic enumeration lists class representatives only")
        triples = _uniform_class_list(m)
        return [IntermediateLattice(t, sym_matrix_for_triple(model, t)) for t in triples]
    p = model.p
    all_triples = []
    for i in range(m + 1):
        for j in range(m + i + 2):
            # the admissible r: 0, and p^k u with p not dividing u, u < p^(j-k), i+j-m <= k < j
            units = (p**k * u for k in range(max(0, i + j - m), j) for u in range(1, p ** (j - k)) if u % p)
            all_triples.extend((r, i, j) for r in [0, *sorted(units)])
    if not classify:
        all_triples.sort(key=lambda t: (t[1] + t[2], t[2], t[0]))
        return [IntermediateLattice(t, LatticeHNF(3, triple_matrix(model, t))) for t in all_triples]
    classes = []
    for t in all_triples:
        for cls in classes:
            if lattices_isomorphic(model, cls[0], t):
                cls.append(t)
                break
        else:
            classes.append([t])
    reps = [min(cls, key=lambda t: (t[0], t[1], t[2])) for cls in classes]
    reps.sort(key=lambda t: (t[1] + t[2], t[2], t[0]))
    return [IntermediateLattice(t, LatticeHNF(3, triple_matrix(model, t))) for t in reps]


def _uniform_class_list(m):
    "p-independent class representatives, valid for m <= 1."
    out = []
    for i in range(m + 1):
        for j in range(2 * m + 2):
            if m + i + 1 >= j:
                out.append((0, i, j))
            if j >= 1 and m >= i + j:
                out.append((1, i, j))
    out.sort(key=lambda t: (t[1] + t[2], t[2], t[0]))
    return out


# --- numeric lattice machinery ---------------------------------------------


def _action_matrix(model: LocalModel, g):
    "y = x . T is the product g*x on coordinates (pi e1, e1, e0)."
    a, b, c = g
    pv = model.p * model.v
    return (
        (b, pv * a, 0),
        (a, b, 0),
        (0, 0, c),
    )


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


def complement_numeric(model: LocalModel, m_rows, target_rows, K):
    "{x : g x in target for all generators g of M}, exact at precision K."
    p = model.p
    w = _membership_congruence_matrix(target_rows, K, p)
    cols = [mat_mul(_action_matrix(model, g), w) for g in m_rows]
    cmat = tuple(tuple(x for tw in cols for x in tw[i]) for i in range(3))
    return kernel_mod_pk(cmat, p, K)


def complementary_lattice(model: LocalModel, lattice, target=None):
    """{M : target} = {x in A : M x subseteq target}; target defaults to
    Z_p B.  Numeric mode solves the divisibility system at precision
    p^(2m+2) and re-checks at p^(2m+4); symbolic mode uses closed forms
    for the representative shapes."""
    if model.symbolic:
        return _complement_symbolic(model, lattice, target)
    m_rows = _rows_of(model, lattice)
    target_rows = _rows_of(model, target) if target is not None else triple_matrix(model, model.lam_triple)
    k0 = 2 * model.m + 2
    first = complement_numeric(model, m_rows, target_rows, k0)
    second = complement_numeric(model, m_rows, target_rows, k0 + 2)
    if first != second:
        raise PrecisionUnstable("complementary lattice changed under precision increase")
    return LatticeHNF(3, first)


def _rows_of(model, lattice):
    if isinstance(lattice, IntermediateLattice):
        return triple_matrix(model, lattice.params)
    if isinstance(lattice, LatticeHNF):
        return lattice.matrix
    if isinstance(lattice, tuple) and len(lattice) == 3 and all(isinstance(x, int) for x in lattice):
        return triple_matrix(model, lattice)
    return tuple(tuple(int(x) for x in row) for row in lattice)


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


# --- symbolic lattice shapes ------------------------------------------------


def sym_matrix_for_triple(model: LocalModel, triple):
    "Exponent matrix (entry = v_p exponent, None = zero) of M(r,i,j)."
    r, i, j = triple
    if r == 0:
        e13 = None
    elif r == 1:
        e13 = 0 if j > 0 else None
    else:
        raise UnsupportedM("symbolic triples carry r in {0, 1}")
    return [
        [i, None, e13],
        [None, 0, 0 if j > 0 else None],
        [None, None, j],
    ]


def _complement_symbolic(model: LocalModel, lattice, target):
    m = model.m
    if isinstance(lattice, IntermediateLattice):
        r, i, j = lattice.params
    else:
        r, i, j = lattice
    if target is None:
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
    # multiplier order {M : M}
    tr, ti, tj = target if not isinstance(target, IntermediateLattice) else target.params
    if (tr, ti, tj) != (r, i, j):
        raise UnsupportedM("symbolic complements target Z_pB or M itself")
    if r == 0:
        return sym_matrix_for_triple(model, (0, max(i, j - i - 1), j))
    if r == 1 and (i, j) == (0, 1) and m == 1:
        return sym_matrix_for_triple(model, (0, 1, 1))
    raise UnsupportedM("symbolic multiplier implemented for the m <= 1 representatives")


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


def _exp_matrix(model, lattice):
    if model.symbolic:
        if isinstance(lattice, IntermediateLattice):
            return [row[:] for row in lattice.hnf]
        return [row[:] for row in lattice]
    return _to_exps(model, _rows_of(model, lattice))


def _scaled_reduced(model, state, q):
    "Scale row q by p and restore reduced form; returns a new matrix."
    if model.symbolic:
        mat = [row[:] for row in state]
        mat[q] = [None if x is None else x + 1 for x in mat[q]]
        return _sym_reduce(mat)
    rows = [list(r) for r in state]
    rows[q] = [x * model.p for x in rows[q]]
    return [list(r) for r in hnf_square(tuple(tuple(r) for r in rows))]


def _to_exps(model, mat):
    if model.symbolic:
        return mat
    p = model.p
    return [[None if x == 0 else valuation(x, p) for x in row] for row in mat]


def _min_r_layer(exps, q):
    "Minimal quadratic-component layer contributed by row q's leading digit."
    layers = []
    if q == 0 and exps[0][0] is not None:
        layers.append(2 * exps[0][0] + 1)
    if exps[q][1] is not None:
        layers.append(2 * exps[q][1])
    return min(layers) if layers else None


def _min_z_layer(exps, q):
    return exps[q][2]


def decompose_domain(model: LocalModel, lattice):
    """Disjoint product-region decomposition of a lattice L (a sublattice
    of Lambda_0 of p-power index): L is partitioned into pieces that are,
    per component, either a full tail pi^w R / p^w Z_p or a multiplicative
    unit coset of given valuation and depth.  Region counts are
    polynomials in p.
    """
    state = _exp_matrix(model, lattice) if model.symbolic else [list(r) for r in _rows_of(model, lattice)]
    bound = 2 * (2 * model.m + 1) + 2
    regions = []
    _split(model, state, None, None, None, None, PPoly(1), regions, bound, 0)
    return regions


def _split(model, state, lead_r, lead_z, pend_r, pend_z, count, out, bound, depth):
    if depth > 3 * bound + 9:
        raise DepthExceeded("region decomposition did not reach a product box")
    exps = _to_exps(model, state)
    e11, e22, e33 = exps[0][0], exps[1][1], exps[2][2]
    a_r = min(x for x in (2 * e11 + 1, None if exps[0][1] is None else 2 * exps[0][1], 2 * e22) if x is not None)
    b_z = min(x for x in (exps[0][2], exps[1][2], e33) if x is not None)
    # resolve pending unit offsets that now lead their component
    if lead_r is None and pend_r is not None and pend_r < a_r:
        lead_r, pend_r = pend_r, None
    if lead_z is None and pend_z is not None and pend_z < b_z:
        lead_z, pend_z = pend_z, None
    det_exp = e11 + e22 + e33
    if a_r + b_z == det_exp:
        qpart = RegionPart("coset", lead_r, a_r - lead_r) if lead_r is not None else RegionPart("tail", a_r)
        zpart = RegionPart("coset", lead_z, b_z - lead_z) if lead_z is not None else RegionPart("tail", b_z)
        out.append(Region(qpart, zpart, count))
        return
    # choose the digit to fix
    if lead_r is None or lead_z is None:
        cand = []
        if lead_r is None:
            cand.append((a_r, "R"))
        if lead_z is None:
            cand.append((b_z, "Z"))
        layer, comp = min(cand)
        rows = [q for q in range(3) if (_min_r_layer(exps, q) if comp == "R" else _min_z_layer(exps, q)) == layer]
        if len(rows) != 1:
            raise PrecisionUnstable(f"digit collision at {comp} layer {layer}")
        if comp == "R" and pend_r is not None and pend_r == layer:
            raise PrecisionUnstable("pending offset collides with a frontier digit")
        if comp == "Z" and pend_z is not None and pend_z == layer:
            raise PrecisionUnstable("pending offset collides with a frontier digit")
        q = rows[0]
        # zero branch
        _split(model, _scaled_reduced(model, state, q), lead_r, lead_z, pend_r, pend_z, count, out, bound, depth + 1)
        # unit branch
        nlr, nlz, npr, npz = lead_r, lead_z, pend_r, pend_z
        other_r = _min_r_layer(exps, q)
        other_z = _min_z_layer(exps, q)
        if comp == "R":
            nlr = layer
            if lead_z is None and other_z is not None:
                if other_z == b_z:
                    if [q2 for q2 in range(3) if _min_z_layer(exps, q2) == b_z] != [q]:
                        raise PrecisionUnstable("joint digit collision at the rational frontier")
                    nlz = other_z
                else:
                    npz = other_z if npz is None else min(npz, other_z)
        else:
            nlz = layer
            if lead_r is None and other_r is not None:
                if other_r == a_r:
                    if [q2 for q2 in range(3) if _min_r_layer(exps, q2) == a_r] != [q]:
                        raise PrecisionUnstable("joint digit collision at the quadratic frontier")
                    nlr = other_r
                else:
                    npr = other_r if npr is None else min(npr, other_r)
        _split(
            model,
            _scaled_reduced(model, state, q),
            nlr,
            nlz,
            npr,
            npz,
            count * PM1,
            out,
            bound,
            depth + 1,
        )
        return
    # both components led but the box is not yet a product: absorb the
    # next interior digit over all p values
    keys = []
    for q in range(3):
        ks = [x for x in (_min_r_layer(exps, q), _min_z_layer(exps, q)) if x is not None]
        keys.append((min(ks), q))
    _, q = min(keys)
    _split(
        model,
        _scaled_reduced(model, state, q),
        lead_r,
        lead_z,
        pend_r,
        pend_z,
        count * PPoly.var(),
        out,
        bound,
        depth + 1,
    )


# --- region integrals and genus zeta functions ------------------------------


def _scalars(model):
    "one, p-as-scalar, and converters for the two coefficient modes."
    if model.symbolic:
        return PFrac(1), PFrac(PPoly.var())
    return Fraction(1), Fraction(model.p)


def _part_value(model, part: RegionPart):
    "(t-exponent, zeta-power, scalar measure factor) of one component."
    one, p = _scalars(model)
    if part.kind == "tail":
        return part.valuation, 1, one
    d = part.depth
    if model.symbolic:
        meas = PFrac(PPoly(1), PPoly.power(d - 1) * PM1)
    else:
        meas = Fraction(1, model.p ** (d - 1) * (model.p - 1))
    return part.valuation, 0, meas


def region_integral(model: LocalModel, region: Region) -> LocalRationalFunction:
    "count * product of the component integrals, as num/(1-t)^2."
    acc = {0: {}, 1: {}, 2: {}}
    _accumulate_region(model, region, acc)
    return _finalize(model, acc, shift=0, scale=_scalars(model)[0], integral=False)


def _accumulate_region(model, region, acc):
    one, _ = _scalars(model)
    texp = 0
    zpow = 0
    meas = one
    for part in (region.quadratic, region.rational):
        t, z, s = _part_value(model, part)
        texp += t
        zpow += z
        meas = meas * s
    if model.symbolic:
        cnt = PFrac(region.count)
    else:
        cnt = Fraction(region.count(model.p))
    val = meas * cnt
    acc[zpow][texp] = acc[zpow].get(texp, one * 0) + val


def _finalize(model, acc, shift, scale, integral=True):
    "Assemble sum_z A_z(t) zeta^z as N(t) / (1-t)^2, then shift by t^-shift."
    one, _ = _scalars(model)
    zero = one * 0
    length = max((e for d in acc.values() for e in d), default=0) + 3
    num = [zero] * length
    for zpow, d in acc.items():
        mult = {0: (1, -2, 1), 1: (1, -1), 2: (1,)}[zpow]
        for e, val in d.items():
            for k, c in enumerate(mult):
                num[e + k] = num[e + k] + val * c
    for _ in range(shift):
        if not _is_zero_scalar(num[0]):
            raise ArithmeticError("index shift below t^0")
        num.pop(0)
    num = [x * scale for x in num]
    coeffs = [_demote(model, x, integral) for x in num]
    while len(coeffs) > 1 and _is_zero_scalar(coeffs[-1]):
        coeffs.pop()
    return LocalRationalFunction(None if model.symbolic else model.p, tuple(coeffs), (1, -2, 1))


def _is_zero_scalar(x):
    if isinstance(x, PFrac):
        return x.is_zero()
    return x == 0


def _demote(model, x, integral=True):
    "Genus sums must clear every measure denominator; single regions need not."
    if model.symbolic:
        if not integral:
            return x
        poly = x.as_poly() if isinstance(x, PFrac) else PPoly(x)
        return poly if poly.degree() > 0 else poly.c[0]
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    if integral:
        raise ArithmeticError(f"non-integral zeta coefficient {f}")
    return f


def automorphism_measure_inverse(model: LocalModel, lattice):
    """mu(Aut M)^{-1} = [Lambda_0^x : {M:M}^x] in the Haar measure with
    mu(Lambda_0^x) = 1.  Numeric: unit counting in the finite quotient at
    p^(2m+2) with a re-check at p^(2m+4), where the units of a lattice L
    are counted by inclusion-exclusion from the ranks mod p of L's b- and
    c-columns (see ``_unit_count``: that rank is the p-exponent of the
    index of L cut by b = 0 or c = 0 mod p in L); symbolic: closed form
    from the multiplier order's shape."""
    if model.symbolic:
        params = lattice.params if isinstance(lattice, IntermediateLattice) else tuple(lattice)
        r, i, j = params
        if r == 0:
            oi, oj = max(i, j - i - 1), j
        elif r == 1 and (i, j) == (0, 1) and model.m == 1:
            oi, oj = 1, 1
        else:
            raise UnsupportedM("symbolic measure implemented for the m <= 1 representatives")
        out = PPoly.power(oi)
        if oj >= 1:
            out = out * PPoly.power(oj - 1) * PM1
        return out
    m_rows = _rows_of(model, lattice)
    mult_rows = complement_numeric(model, m_rows, m_rows, 2 * model.m + 2)
    k0 = 2 * model.m + 2
    first = _unit_index(model, mult_rows, k0)
    second = _unit_index(model, mult_rows, k0 + 2)
    if first != second:
        raise PrecisionUnstable("unit index changed under precision increase")
    return first


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


def genus_zeta(model: LocalModel, lattice, muinv=None) -> LocalRationalFunction:
    """Z(M, Lambda; s) = mu(Aut M)^{-1} (Lambda:M)^{-s} * integral over
    A^x of the characteristic function of {M:Lambda} times |x|^s.
    ``muinv`` is mu(Aut M)^{-1} when the caller has it already."""
    params = lattice.params if isinstance(lattice, IntermediateLattice) else tuple(lattice)
    r, i, j = params
    comp = complementary_lattice(model, lattice if isinstance(lattice, IntermediateLattice) else params)
    regions = decompose_domain(model, comp)
    acc = {0: {}, 1: {}, 2: {}}
    for reg in regions:
        _accumulate_region(model, reg, acc)
    if muinv is None:
        muinv = automorphism_measure_inverse(model, params)
    if model.symbolic:
        scale = PFrac(muinv)
    else:
        scale = Fraction(muinv)
    shift = (3 * model.m + 1) - (i + j)
    return _finalize(model, acc, shift=shift, scale=scale)


def total_local_zeta(model: LocalModel) -> LocalRationalFunction:
    "Sum of the genus zeta functions over the class representatives, reduced."
    if model.m > 1:
        raise UnsupportedM("total local zeta implemented for m <= 1")
    return sum_genus_zetas([genus_zeta(model, rep) for rep in enumerate_genus_representatives(model)])


def sum_genus_zetas(zetas) -> LocalRationalFunction:
    "Sum of genus zeta functions over (1-t)^2, reduced: the local zeta of their genus."
    return reduce(_add_same_den, zetas).reduced()


def _add_same_den(a: LocalRationalFunction, b: LocalRationalFunction) -> LocalRationalFunction:
    assert a.den == b.den
    return LocalRationalFunction(a.p, padd(a.num, b.num), a.den)


def region_residue_exponent(region: Region, K):
    "log_p of the residue count of the region's piece modulo p^K Lambda_0."
    e = 0
    part = region.quadratic
    e += 2 * K - (part.valuation + part.depth)
    part = region.rational
    e += K - (part.valuation + part.depth)
    return e


def residue_certificate(model: LocalModel, lattice, regions, K):
    """Exhaustive-and-disjoint check: sum over regions of residue counts
    mod p^K equals [L : p^K Lambda_0].  Returns (lhs, rhs) as polynomials
    in p (symbolic) or integers."""
    exps = _exp_matrix(model, lattice)
    det_exp = exps[0][0] + exps[1][1] + exps[2][2]
    if model.symbolic:
        lhs = PPoly(0)
        for reg in regions:
            lhs = lhs + reg.count * PPoly.power(region_residue_exponent(reg, K))
        rhs = PPoly.power(3 * K - det_exp)
        return lhs, rhs
    p = model.p
    lhs = sum(reg.count(p) * p ** region_residue_exponent(reg, K) for reg in regions)
    rhs = p ** (3 * K - det_exp)
    return lhs, rhs
