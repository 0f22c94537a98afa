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

Two kernels do the counting.  On rank 2 and 3 the count collapses per
diagonal: with the outer off-diagonal entries fixed, the closure
conditions become chained linear congruences in the remaining entry,
which we intersect as arithmetic progressions instead of looping.  This
assumes nothing about n, so every index is counted as a sum over its
divisor tuples.  The plain stream tests every HNF in turn; it counts the
other ranks and is the reference the collapse is checked against in the
test suite.  The collapse kernels keep their names
``_count_prime_power_dim2``/``_dim3`` because the benchmark's traced run
wraps them by name.
"""

from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import InputError
from .exact import divisors, is_prime


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
    "a_n = number of index-n ideal sublattices for n = 1..bound, by direct count."
    if bound < 1:
        raise InputError("bound must be >= 1")
    count = _index_counter(table)
    return IdealCountSeries(bound, tuple(count(n) for n in range(1, bound + 1)))


def count_ideals_at_prime(table, p, kmax):
    """[a_1, a_p, ..., a_{p^kmax}]: the prime-power restriction, computed
    directly (only p-power determinants are visited)."""
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if kmax < 0:
        raise InputError(f"kmax must be at least 0, got {kmax}")
    count = _index_counter(table)
    return [count(p**k) for k in range(kmax + 1)]


def _index_counter(table):
    """n -> number of index-n ideals.  Rank 2 and 3 sum the collapse kernel
    over the diagonals; other ranks run the plain stream.  The kernels are
    looked up by their module names at call time."""
    dim = len(table)
    if dim not in (2, 3):
        return lambda n: _count_for_index((table, dim, n))
    acts = _action_matrices(table)

    def count(n):
        kernel = _count_prime_power_dim3 if dim == 3 else _count_prime_power_dim2
        return sum(kernel(acts, diag) for diag in divisor_tuples(n, dim))

    return count


def _count_for_index(job):
    "The plain stream: test every index-n HNF for closure."
    table, dim, n = job
    acts = _action_matrices(table)
    return sum(1 for rows in _hnf_rows(dim, n) if _closed(acts, rows))


class _Progression:
    "Solution set {offset + step * Z} intersected with [0, modulus)."

    __slots__ = ("offset", "step", "empty")

    def __init__(self):
        self.offset = 0
        self.step = 1
        self.empty = False

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
    """Ideal count for one diagonal (d1,d2,d3) of any index: loop the
    entries (0,1)=a and (1,2)=c, narrow the entry (0,2)=b by the conditions
    that are affine in b (rows 2 and 3 closure, row 1 leading division),
    then scan the surviving progression and test full row-1 closure per
    survivor.  The closure of row 1 involves b quadratically through the
    back-substitutions, which is why the last step is a scan rather than
    another refine."""
    d1, d2, d3 = diag
    total = 0
    for a in range(d2):
        for c in range(d3):
            prog = _Progression()
            ok = True
            for act in acts:
                # row 3 product: w = d3 * act[2]
                w0, w1, w2 = d3 * act[2][0], d3 * act[2][1], d3 * act[2][2]
                if w0 % d1:
                    ok = False
                    break
                q1 = w0 // d1
                t = w1 - q1 * a
                if t % d2:
                    ok = False
                    break
                q2 = t // d2
                prog.refine(-q1, w2 - q2 * c, d3)
                if prog.empty:
                    ok = False
                    break
                # row 2 product: w = d2 * act[1] + c * act[2]
                w0 = d2 * act[1][0] + c * act[2][0]
                w1 = d2 * act[1][1] + c * act[2][1]
                w2 = d2 * act[1][2] + c * act[2][2]
                if w0 % d1:
                    ok = False
                    break
                q1 = w0 // d1
                t = w1 - q1 * a
                if t % d2:
                    ok = False
                    break
                q2 = t // d2
                prog.refine(-q1, w2 - q2 * c, d3)
                if prog.empty:
                    ok = False
                    break
                # row 1 leading division: w0 = d1*act[0][0] + a*act[1][0] + b*act[2][0]
                prog.refine(act[2][0], d1 * act[0][0] + a * act[1][0], d1)
                if prog.empty:
                    ok = False
                    break
            if not ok:
                continue
            b = prog.offset
            while b < d3:
                if _row1_closed(acts, diag, a, b, c):
                    total += 1
                b += prog.step
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
    "Ideal count for one diagonal (d1,d2) of any index: loop the entry (0,1)."
    d1, d2 = diag
    total = 0
    for a in range(d2):  # entry (0,1)
        ok = True
        for act in acts:
            # row 2: w = d2 * act[1]
            w0, w1 = d2 * act[1][0], d2 * act[1][1]
            if w0 % d1:
                ok = False
                break
            q1 = w0 // d1
            if (w1 - q1 * a) % d2:
                ok = False
                break
            # row 1: w = d1*act[0] + a*act[1]
            w0 = d1 * act[0][0] + a * act[1][0]
            w1 = d1 * act[0][1] + a * act[1][1]
            if w0 % d1:
                ok = False
                break
            q1 = w0 // d1
            if (w1 - q1 * a) % d2:
                ok = False
                break
        if ok:
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
