"""Brute-force ideal counting in an integral multiplication table.

This is the package's independent ground truth for every zeta
coefficient: a_n is the number of index-n sublattices of Z^dim in
Hermite normal form that are closed under multiplication by every basis
element.  Nothing here knows about Euler products or genus theory.

Conventions: lattices are row-generated, HNF is upper triangular with
positive diagonal and column-reduced entries (0 <= h[i][j] < h[j][j] for
i < j), so the index-n sublattices of Z^dim are enumerated by divisor
tuples d_1 ... d_dim = n and independent off-diagonal residues.  The
stream order is fixed: divisor tuples lexicographically, off-diagonal
residues row-major; golden outputs rely on it.

Two kernels do the counting, and each entry point uses one of them.
``count_ideals_at_prime`` runs the descent on every rank, and
``count_ideals`` runs it on every rank but 2 and 3.  The descent
(``_descend``) goes breadth-first from Lambda = Z^dim through maximal
sub-ideals: the children of an ideal I are the J with mI <= J < I and
I/J = Lambda/m for a maximal ideal m of Lambda/pLambda (``modp``), so
its cost grows with the number of ideals it finds, not with the number
of lattices.  ``count_ideals`` on rank 2 and 3 keeps the per-diagonal
congruence collapse, which is faster there on full-range counts: each
closure condition is a congruence in the off-diagonal entries, and each
one that is linear in an entry is intersected as an arithmetic
progression (``_Progression``) at the outermost loop where it becomes
linear, so only the residues it allows are walked.  Rank 2
(``_count_prime_power_dim2``) walks one progression in its entry (0,1);
rank 3 (``_count_prime_power_dim3``) walks a progression in the entry
(1,2), then for each of those a progression in (0,1), then a progression
in (0,2), and tests the full row-1 closure on each survivor; every index
is counted as a sum over its divisor tuples.  The collapse kernels keep
their names and their ``(acts, diag)`` arguments because the
benchmark's traced run wraps them by name.  The plain stream
(``_count_for_index``), which tests every HNF in turn, serves no entry
point: it is the reference both kernels are checked against in the test
suite.

Costs on a 2-core machine with Python 3.11, interpreter start-up
(about 0.2 s) included: ``count`` on Z[C4] to N=64 takes about 0.25 s
(44 s with the stream); ``verify --family conference --u 3
--max-index 64``, which counts to 13^5 at p=13, takes about 0.25 s
(2.4-3.0 s with the collapse); ``zeta --family drt --u 6 --max-index 50``,
which counts to 3^11 at p=3, takes about 0.35 s (3.0 s).

Both kernels count the ideals of a commutative, associative ring with
identity b_0, and both entry points refuse any other table first: a
non-commutative one with ``NonCommutative``, any other with
``InputError``.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product
from math import gcd

from .errors import InputError, NonCommutative
from .exact import divisors, is_prime, primes_up_to
from .modp import kernel, maximal_ideals, pivots, rref


@dataclass(frozen=True)
class LatticeHNF:
    dim: int
    matrix: tuple  # rows

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
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
class IdealCountSeries:
    bound: int
    counts: tuple  # a_1 .. a_N

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(x) for x in self.counts))
        if len(self.counts) != self.bound:
            raise InputError("counts length must equal the bound")
        if self.bound >= 1 and self.counts[0] != 1:
            raise InputError("a_1 must be 1")

    def a(self, n):
        return self.counts[n - 1]


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


def _action_matrices(table):
    """Row-action matrices: for x a row vector, x . A_i is b_i * x.
    A_i[l][k] = table[i][l][k].  The identity (index 0) is skipped."""
    dim = len(table)
    out = []
    for i in range(1, dim):
        out.append(tuple(tuple(table[i][l][k] for k in range(dim)) for l in range(dim)))
    return out


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
    "True iff the lattice is closed under multiplication by every basis element."
    dim = len(table)
    if lattice.dim != dim:
        raise InputError(f"lattice dimension {lattice.dim} != table rank {dim}")
    return _closed(_action_matrices(table), lattice.matrix)


def count_ideals(table, bound) -> IdealCountSeries:
    """a_n = number of index-n ideal sublattices for n = 1..bound, by direct
    count: the collapse kernels on rank 2 and 3, the descent otherwise."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    _check_table(table)
    dim = len(table)
    if dim in (2, 3):
        acts = _action_matrices(table)
        collapse = _count_prime_power_dim3 if dim == 3 else _count_prime_power_dim2
        counts = [sum(collapse(acts, diag) for diag in divisor_tuples(n, dim)) for n in range(1, bound + 1)]
    else:
        found = _descend(table, bound, primes_up_to(bound))
        counts = [found.get(n, 0) for n in range(1, bound + 1)]
    return IdealCountSeries(bound, tuple(counts))


def count_ideals_at_prime(table, p, kmax):
    """[a_1, a_p, ..., a_{p^kmax}]: the prime-power restriction, computed
    directly by the descent at p alone."""
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if kmax < 0:
        raise InputError(f"kmax must be at least 0, got {kmax}")
    _check_table(table)
    found = _descend(table, p**kmax, (p,))
    return [found.get(p**k, 0) for k in range(kmax + 1)]


def _check_table(table):
    """Both kernels count the ideals of a commutative, associative ring
    with identity b_0; any other tensor is refused before counting."""
    r = len(table)
    try:
        ok = r >= 1 and all(len(plane) == r and all(len(row) == r for row in plane) for plane in table)
    except TypeError:
        ok = False
    if not ok:
        raise InputError(f"the multiplication table must be {r}x{r}x{r}")
    for i in range(r):
        for j in range(i + 1, r):
            if tuple(table[i][j]) != tuple(table[j][i]):
                raise NonCommutative(f"the table is not commutative: b{i} b{j} != b{j} b{i}")
    for j in range(r):
        if any(table[0][j][k] != (j == k) for k in range(r)):
            raise InputError(f"b0 is not the identity: b0 b{j} != b{j}")
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if _expand(table, table[i][j], k) != _expand(table, table[j][k], i):
                    raise InputError(f"the table is not associative: (b{i} b{j}) b{k} != b{i} (b{j} b{k})")


def _expand(table, x, k):
    "The product of x = sum_m x_m b_m with b_k, by commutativity x b_k = sum_m x_m b_m b_k."
    out = [0] * len(x)
    for m, xm in enumerate(x):
        if xm:
            for l, y in enumerate(table[m][k]):
                out[l] += xm * y
    return out


def _count_for_index(job):
    "The plain stream: test every index-n HNF for closure (the test reference)."
    table, dim, n = job
    acts = _action_matrices(table)
    return sum(1 for rows in _hnf_rows(dim, n) if _closed(acts, rows))


def _descend(table, bound, primes):
    """{n: number of index-n ideals} for every n <= bound with a nonzero
    count whose prime factors lie in ``primes`` (ascending).

    Breadth-first from Lambda in order of index.  An ideal I of index n
    gets, for a maximal ideal m of residue degree f above a prime p in
    primes with n p^f <= bound, the children J with mI <= J < I and
    I/J = F_q, q = p^f: the F_q-hyperplanes of I/mI.  The maximal ideals
    are taken in a fixed order (by p, then as ``maximal_ideals`` lists
    them), and I gets children only at the m of its own last step and
    after it.  Every ideal J of index at most bound is still reached:
    Lambda/J is the direct sum of its localizations at the m in its
    support, so a composition series can take all its factors at the
    first m, then all at the next, and so on, and each step is a
    maximal sub-ideal.  That path is found, and the others are not
    followed, so fewer children are built twice.  Children are kept by
    canonical HNF, so an ideal reached from several parents is counted
    once."""
    r = len(table)
    acts = _action_matrices(table)
    steps = [  # (p, m, the action matrices of the generators of m)
        (p, m, [_times_matrix(table, g) for g in m.generators]) for p in primes for m in maximal_ideals(table, p)
    ]
    top = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    levels = {1: {top: 0}}  # index -> {HNF rows: position in steps of the last step}
    pending = [1]
    found = {}
    while pending:
        n = heappop(pending)
        level = levels.pop(n)
        found[n] = len(level)
        if not primes or n * primes[0] > bound:
            continue
        for rows, first in level.items():
            for pos in range(first, len(steps)):
                p, m, gens = steps[pos]
                if n * p > bound:
                    break  # and every later step, whose p is no smaller
                q = p**m.f
                if n * q > bound:
                    continue
                # mI / pI in the coordinates of I: the generators of m times the rows of I
                w = rref([c for g in gens for c in _products(rows, g)], p)
                if r - len(w) == m.f:
                    subs = (w,)  # I/mI = F_q: its one hyperplane is 0
                else:
                    mats = [_products(rows, act) for act in acts] if m.f > 1 else None
                    subs = _hyperplanes(w, m.f, mats, p, r)
                child = levels.get(n * q)
                if child is None:
                    child = levels[n * q] = {}
                    heappush(pending, n * q)
                for sub in subs:
                    child[_sublattice(rows, sub, p)] = pos
    return found


def _times_matrix(table, g):
    "The action matrix of g: x . A is g x for a row vector x."
    r = len(table)
    return tuple(tuple(sum(g[i] * table[i][l][k] for i in range(r)) for k in range(r)) for l in range(r))


def _products(rows, act):
    """The coordinates, in the HNF rows of an ideal, of each row times an
    action matrix (an integer vector, since the ideal is closed)."""
    r = len(rows)
    out = []
    for g in rows:
        v = [0] * r
        for l, gl in enumerate(g):
            if gl:
                for k, x in enumerate(act[l]):
                    v[k] += gl * x
        c = []
        for i, row in enumerate(rows):
            q = v[i] // row[i]
            c.append(q)
            if q:
                for k in range(i, r):
                    v[k] -= q * row[k]
        out.append(c)
    return out


def _hyperplanes(w, f, mats, p, r):
    """Echelon bases (each row's first nonzero entry a 1, at a column no
    other row starts at) of the subspaces U of F_p^r that contain w with
    U/w an F_q-hyperplane of V = F_p^r / w, q = p^f, where V is an
    F_q-vector space.  V is coordinatized by the columns where no row of
    w starts.  For f = 1 these are the F_p-hyperplanes, one per reduced
    echelon form: every free column but one, c, starts a row, and the
    rows starting before c have an entry at c.  For f > 1, with b_j
    acting on F_p^r by mats[j-1], each F_p-functional phi on V gives the
    largest submodule {v : phi(a v) = 0 for all a} in its kernel, which
    is the kernel of the F_q-functional whose trace is phi; each U arises
    (q-1)/(p-1) times and is returned once."""
    piv = dict(zip(pivots(w), w))
    free = [c for c in range(r) if c not in piv]
    dim = len(free)
    if f == 1:
        out = []
        for c in range(dim):
            for entries in product(range(p), repeat=c):
                rows = list(w)
                for j, col in enumerate(free):
                    if j != c:
                        v = [0] * r
                        v[col] = 1
                        if j < c:
                            v[free[c]] = entries[j]
                        rows.append(v)
                out.append(rows)
        return out

    def reduce(v):
        "The free coordinates of v modulo w."
        for c, b in piv.items():
            x = v[c]
            if x:
                v = [vi - x * bi for vi, bi in zip(v, b)]
        return [v[c] % p for c in free]

    on_v = [[reduce(mat[c]) for c in free] for mat in mats]  # b_j on V; b_0 is the identity
    out = []
    for phi in _projective_points(dim, p):
        # row t: phi(e_t b_j) for every j, e_t the t-th basis vector of V
        ker = kernel([[phi[t]] + [sum(x * y for x, y in zip(mat[t], phi)) for mat in on_v] for t in range(dim)], p)
        lifted = []
        for u in ker:
            v = [0] * r
            for col, x in zip(free, u):
                v[col] = x
            lifted.append(v)
        sub = rref(list(w) + lifted, p)
        if sub not in out:
            out.append(sub)
    return out


def _projective_points(dim, p):
    "One nonzero vector of F_p^dim per line: its first nonzero entry is 1."
    for s in range(dim):
        for tail in product(range(p), repeat=dim - s - 1):
            yield (0,) * s + (1,) + tail


def _sublattice(rows, sub, p):
    """The canonical HNF of {c . rows : c mod p in sub}, for the HNF rows
    of a lattice and an echelon basis of a subspace sub of F_p^r: the
    lattice has the triangular basis of the echelon rows times rows and
    p times the rows at the columns where no echelon row starts."""
    r = len(rows)
    out = [[p * x for x in row] for row in rows]
    for u in sub:
        c = u.index(1)
        v = list(rows[c])
        for k in range(c + 1, r):
            x = u[k]
            if x:
                for l, y in enumerate(rows[k]):
                    v[l] += x * y
        out[c] = v
    # upper triangular with positive diagonal: reduce above each pivot
    for j in range(1, r):
        d = out[j][j]
        for i in range(j):
            t = out[i][j] // d
            if t:
                out[i] = [x - t * y for x, y in zip(out[i], out[j])]
    return tuple(map(tuple, out))


class _Progression:
    "Solution set {offset + step * Z}; offset stays in [0, step)."

    __slots__ = ("offset", "step", "empty")

    def __init__(self):
        self.offset = 0
        self.step = 1
        self.empty = False

    def copy(self):
        out = _Progression()
        out.offset, out.step, out.empty = self.offset, self.step, self.empty
        return out

    def below(self, bound):
        "The members in [0, bound), ascending."
        return range(bound if self.empty else self.offset, bound, self.step)

    def refine(self, a, b, m):
        "Impose a * x + b == 0 (mod m) on x = offset + step * t."
        if self.empty or m == 1:
            return
        aa = (a * self.step) % m
        bb = (a * self.offset + b) % m
        g = gcd(aa, m)
        if bb % g:
            self.empty = True
            return
        mm = m // g
        if mm == 1:
            return
        t0 = (-(bb // g) * pow(aa // g, -1, mm)) % mm
        self.offset += self.step * t0
        self.step *= mm


def _count_prime_power_dim3(acts, diag):
    """Ideal count for one diagonal (d1,d2,d3) of any index, over the HNF
    rows (d1, a, b), (0, d2, c), (0, 0, d3).  Each closure condition is
    imposed at the outermost loop where it is linear:

    - before any loop: d1 | d3*A[2][0] (else no ideal), the row-3 second
      coordinate d2 | d3*A[2][1] - r1*a with r1 = d3*A[2][0]/d1 as a
      progression in a, and the row-2 leading division
      d1 | d2*A[1][0] + c*A[2][0] as a progression in c;
    - per c: the row-2 second coordinate d2 | d2*A[1][1] + c*A[2][1] -
      q1*a with q1 = (d2*A[1][0] + c*A[2][0])/d1, which narrows a copy of the progression in a (it also
      follows from the row-3 third coordinate and the row-1 leading
      division below, so it only drops (a, c) cells early);
    - per (a, c): the conditions affine in b (third coordinates of rows 3
      and 2, row-1 leading division) narrow a progression in b, and each
      survivor gets the full row-1 closure test, which involves b
      quadratically through the back-substitutions."""
    d1, d2, d3 = diag
    a_all, c_all = _Progression(), _Progression()
    for act in acts:
        w0 = d3 * act[2][0]
        if w0 % d1:
            return 0
        a_all.refine(-(w0 // d1), d3 * act[2][1], d2)
        c_all.refine(act[2][0], d2 * act[1][0], d1)
    total = 0
    for c in c_all.below(d3):
        a_c = a_all.copy()
        per_c = []  # per action matrix: what the conditions on b need at this c
        for act in acts:
            q1 = (d2 * act[1][0] + c * act[2][0]) // d1  # row-2 leading quotient
            w1 = d2 * act[1][1] + c * act[2][1]
            a_c.refine(-q1, w1, d2)
            per_c.append((act, d3 * act[2][0] // d1, q1, w1, d2 * act[1][2] + c * act[2][2]))
        for a in a_c.below(d2):
            prog = _Progression()
            for act, r1, q1, w1, w2 in per_c:
                # row 3 product: w = d3 * act[2], leading quotient r1
                prog.refine(-r1, d3 * act[2][2] - (d3 * act[2][1] - r1 * a) // d2 * c, d3)
                # row 2 product: w = d2 * act[1] + c * act[2] = (.., w1, w2)
                prog.refine(-q1, w2 - (w1 - q1 * a) // d2 * c, d3)
                # row 1 leading division: w0 = d1*act[0][0] + a*act[1][0] + b*act[2][0]
                prog.refine(act[2][0], d1 * act[0][0] + a * act[1][0], d1)
                if prog.empty:
                    break
            for b in prog.below(d3):
                if _row1_closed(acts, diag, a, b, c):
                    total += 1
    return total


def _row1_closed(acts, diag, a, b, c):
    d1, d2, d3 = diag
    for act in acts:
        w0 = d1 * act[0][0] + a * act[1][0] + b * act[2][0]
        if w0 % d1:
            return False
        q1 = w0 // d1
        w1 = d1 * act[0][1] + a * act[1][1] + b * act[2][1]
        t = w1 - q1 * a
        if t % d2:
            return False
        q2 = t // d2
        w2 = d1 * act[0][2] + a * act[1][2] + b * act[2][2]
        if (w2 - q1 * b - q2 * c) % d3:
            return False
    return True


def _count_prime_power_dim2(acts, diag):
    """Ideal count for one diagonal (d1,d2) of any index, over the HNF rows
    (d1, a), (0, d2).  Row 2's closure and row 1's leading division are
    linear in a and narrow one progression before the loop; only row 1's
    second coordinate, quadratic in a, is tested per survivor."""
    d1, d2 = diag
    prog = _Progression()
    for act in acts:
        # row 2: w = d2 * act[1]; with d1 | w0 its second coordinate,
        # d2 | d2*act[1][1] - (w0/d1)*a, says d1 | act[1][0]*a, which is
        # also row 1's leading division (w0 = d1*act[0][0] + a*act[1][0])
        if d2 * act[1][0] % d1:
            return 0
        prog.refine(act[1][0], 0, d1)
    total = 0
    for a in prog.below(d2):
        for act in acts:
            # row 1: w = d1*act[0] + a*act[1], leading quotient q1
            q1 = (d1 * act[0][0] + a * act[1][0]) // d1
            if (d1 * act[0][1] + a * act[1][1] - q1 * a) % d2:
                break
        else:
            total += 1
    return total


def quotient_ring_table(defining_poly):
    """Multiplication tensor of Z[x]/(f) on the power basis, identity at
    index 0; feeds the oracle for Dedekind cross-checks."""
    from .polys import pdeg, pdivmod, pnorm

    f = pnorm(tuple(defining_poly))
    d = pdeg(f)
    lam = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod = [0] * (i + j + 1)
            prod[i + j] = 1
            _, r = pdivmod(tuple(prod), f)
            for k, v in enumerate(r):
                fr = v
                if getattr(fr, "denominator", 1) != 1:
                    raise InputError("non-monic defining polynomial")
                lam[i][j][k] = int(fr)
    return tuple(tuple(tuple(row) for row in plane) for plane in lam)
