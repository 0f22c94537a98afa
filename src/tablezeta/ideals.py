"""Ideal counting in an integral multiplication table, by the descent.

a_n is the number of index-n sublattices of Z^dim in Hermite normal form
that are closed under multiplication by every basis element.  Nothing
here knows about Euler products or genus theory.

Conventions: lattices are row-generated, HNF is upper triangular with
positive diagonal and column-reduced entries (0 <= h[i][j] < h[j][j] for
i < j).  The plain stream over every HNF in ``tests/references.py`` is
the brute-force reference the counts are checked against.

The count is local.  For an ideal I of finite index, Lambda/I is the
direct sum of its localizations at the primes dividing the index
(Solomon 1977; Bushnell-Reiner 1980), so I -> (I_p)_p matches the ideals
of index n with the tuples of ideals of index p^(v_p(n)), and a_mn =
a_m a_n for coprime m and n.  One kernel, the descent (``_descend``),
counts the tower a_1, a_p, ..., a_{p^k} at one prime on every rank:
``count_ideals_at_prime`` returns it, and ``count_ideals`` counts it at
each prime up to its bound and builds every coefficient from the towers
(``IdealCountSeries.from_towers``, the sweep that
``dirichlet.assemble_global`` uses too).  A composite coefficient of
``count_ideals`` is therefore a product of counted prime-power
coefficients, by the theorem above, not a count of its own; the test
suite checks it at composite n against the plain stream, which tests
every HNF in turn and assumes no theorem.

The same local product splits a tower: the ideals of index p^k match
the tuples, one per maximal ideal m of Lambda/pLambda, of ideals whose
quotient is supported at m alone, the ideals of m's block of Lambda_p,
with indices that multiply to p^k (``_descend`` gives the proof).  So the
tower at p is the convolution of one tower per m, and the descent counts
each on its own: it builds the sum of the blocks' ideals, not every
combination of them.

Where m is the only maximal ideal, the ideals inside p Lambda are p
times the ideals, so for the rank r a_{p^k} = (the number of ideals of
index p^k not inside p Lambda) + a_{p^(k-r)} when k >= r, and the descent
builds only the former.  x -> px is injective on Z^dim and maps an ideal
J onto the ideal pJ inside p Lambda, of index p^r [Lambda : J]; an ideal
J inside p Lambda is pJ' for the ideal J' = {x : px in J}; and p Lambda
has index p^r.  Where there are several, no ideal of one block's tower
is inside p Lambda.

The descent at m goes breadth-first from Lambda = Z^dim through maximal
sub-ideals: the children of an ideal I are the J with mI <= J < I and
I/J = Lambda/m, so its cost grows with the number of ideals it finds,
not with the number of lattices.  At an m of residue degree 1 a child's
HNF comes from its parent's rows (``_degree_one_children``).  Let chi be
the characteristic polynomial of a primitive element theta (the first
of ``algebra.primitive_elements``, or the generator of
``decomposition.maximal_order``), of discriminant D.  At a p prime to D,
chi mod p is squarefree, so it is the minimal polynomial of
multiplication by theta mod p and of theta mod p (g(theta) = 1 . g(M)),
Lambda/pLambda = F_p[theta] is F_p[x]/(chi), and its maximal ideals are
the (g(theta)) for the irreducible factors g of chi mod p
(``modp.factor``), of residue degree deg g (Dedekind-Kummer; Cohen, A
Course in Computational Algebraic Number Theory, Thm 4.8.13).  A tower
at such a p takes them (``_maximal``), and one of depth 1, all that a p
with p^2 > bound needs, the number of roots of chi mod p
(``_degree_one_count``).  At p | D they come from ``modp.maximal_ideals``.

The last level of each block's tower is counted, not built.  An ideal J
of index p^k with Lambda/J supported at m is reached from the ideals K
with mK <= J < K, and these K/J are the nonzero subspaces of the
F_q-space (J : m)/J, on whose lattice the Moebius function is known (Rota
1964).  So the last entry is a sum, over the ideals K the descent has
walked at m, of Gaussian binomials in dim K/mK, which the descent
computes anyway to build K's children (``_walk`` gives the proof).  The
same sum is taken for every level that is built, and a level whose count
differs from it raises ArithmeticError, so every descent checks the
theorem on the levels below its last.

Costs on a 2-core machine with Python 3.11, median wall time of eleven
runs of the command with interpreter start and the import of the CLI
included and no bytecode cache, and in brackets the same runs,
interleaved, while the descent built the last level of each tower (the
machine's speed drifts by more than the smaller differences): ``count
--family drt --u 6 --prime 3 --kmax 12`` takes about 0.18 s (0.18 s),
``count --family fusion --name reps3 --max-index 5000`` about 0.20 s
(0.22 s), ``verify`` on reps3 to 4096 about 0.20 s (0.19 s), ``count`` on
Z[C2 x C2] to 1000 about 0.25 s (0.28 s), ``count --family fusion --name
e6 --max-index 1000``, where each of 157 primes takes only a root count of
chi, about 0.12 s (0.13 s), ``count`` on Z[C4] to 64 about 0.13 s
(0.13 s), ``verify --family drt --u 4201 --max-index 50`` about 0.24 s
(0.31 s) and ``count`` on Z[C3 x C3] at 3 to 3^7 about 1.0 s (1.4 s).  In
process, best of seven, the tower of drt(6) at 3 to 3^9 takes 13 ms
(14 ms), ising's at 2 to 2^12 1.6 ms (1.7 ms) and c3's at 3 to 3^8 1.6 ms
(1.7 ms); best of three, Z[C3 x C3]'s at 3 to 3^7 0.69 s (1.1 s) and
Z[C2 x C4]'s at 2 to 2^10 4.7 s (6.3 s).  These towers build 1,074
children (1,749), 7,440 (22,099) and 74,726 (181,516), and take the
products of the generators of m with the rows of an ideal (``_products``)
as often as before, 471, 5,570 and 42,136 times, which is where most of
the time now goes.  Each has one block.  Where Lambda/pLambda has
several, best of seven in process and in brackets while one descent
walked every m at once and built every ideal that mixes them: the tower
of Z[C6] at 2 to 2^10 takes 11 ms (65 ms; 13 ms while its F_4 block found
each hyperplane from every functional that vanishes on it, 90 for 30)
and at 3 to 3^7 7 ms (25 ms),
reps3's at 2 to 2^10 2.4 ms (5.1 ms) and at 3 to 3^7 1.7 ms (3.7 ms), and
Z[C2 x C2]'s at 3 to 3^8, four blocks, 2.8 ms (22 ms).  On Z[C6] at 2
the descent builds 177 children (487) and takes 141 products (581), on
reps3 at 2 146 (331) and 92 (207).

The descent counts the ideals of a commutative, associative ring with
identity b_0, and both entry points refuse any other table first, through
``algebra.check_ring``: a non-commutative one with ``NonCommutative``,
any other with ``InputError``.  ``pipeline`` alone skips that check, and
the search for theta, by handing on the (theta, chi, D) of a
``decomposition.maximal_order`` that has checked the table; it also
hands a bad prime's tower the maximal ideals its socle test found, and
the full count the bad primes' towers.
"""

from dataclasses import dataclass
from itertools import product

from .algebra import action_matrix, check_ring, primitive_elements, unit_vectors
from .errors import InputError
from .exact import int_tuple, is_prime, primes_up_to
from .modp import MaximalIdeal, factor, kernel, maximal_ideals, multiply, pivots, root_count, rref


@dataclass(frozen=True)
class IdealCountSeries:
    """a_1 .. a_N of an ideal-counting zeta function sum a_n n^(-s), with
    a_1 = 1: counted here, or assembled from an Euler product by
    ``dirichlet.assemble_global``, in both cases from its prime-power
    coefficients by ``from_towers``.  It prints as one line "n<TAB>a_n"
    per n."""

    bound: int
    counts: tuple  # a_1 .. a_N

    def __post_init__(self):
        object.__setattr__(self, "counts", int_tuple(self.counts))
        if len(self.counts) != self.bound:
            raise InputError("counts length must equal the bound")
        if self.bound >= 1 and self.counts[0] != 1:
            raise InputError("a_1 must be 1")

    @classmethod
    def from_towers(cls, bound, primes, tower, large):
        """The multiplicative series to bound: a_n is the product of the
        a_{p^k} with p^k || n, for ``primes`` the primes up to bound in
        ascending order.  tower(p, kmax) is [a_1, a_p, ..., a_{p^kmax}] for
        each p with p^2 <= bound, kmax >= 2 the largest k with p^k <= bound,
        and ``large`` gives a_p for each of the rest, in order.

        The sweep takes the primes in order and writes a_j a_{p^k} at every
        n = j p^k <= bound at once, for k = 1, 2, ..., reading a_j at j <=
        bound / p^k.  When p comes, the entry at j p^v with p not dividing
        j holds the product over the primes q < p that the entry at j holds,
        and the entry at j is not written at p; the write for k = v, the last
        at j p^v, makes it right.  So no valuation is computed.  A p with
        p^2 > bound, whose only write is k = 1, takes no tower: a_n = a_j
        a_p at n = j p, where j <= bound / p < sqrt(bound) has no prime
        factor as large as p, and at 2p > bound only a_p itself."""
        coeffs = [1] * (bound + 1)  # index by n, entry 0 unused
        small = 0
        for p in primes:
            if p * p > bound:
                break
            small += 1
            kmax = 2
            while p ** (kmax + 1) <= bound:
                kmax += 1
            step = p
            for a in tower(p, kmax)[1:]:
                row = coeffs[1 : bound // step + 1]
                coeffs[step::step] = row if a == 1 else [c * a for c in row]
                step *= p
        for p, a in zip(primes[small:], large, strict=True):
            if a == 1:  # the entry at j p already holds a_j
                continue
            if 2 * p > bound:
                coeffs[p] = a
            else:
                coeffs[p::p] = [c * a for c in coeffs[1 : bound // p + 1]]
        return cls(bound, coeffs[1:])

    def a(self, n):
        if not 1 <= n <= self.bound:
            raise IndexError(f"a({n}) is outside 1..{self.bound}")
        return self.counts[n - 1]

    def __str__(self):
        """One line "n<TAB>a_n" per n, formatted by one % operation over the
        interleaved pairs (n, a_n), with no newline after the last."""
        pairs = [0] * (2 * self.bound)
        pairs[::2], pairs[1::2] = range(1, self.bound + 1), self.counts
        return ("%d\t%d\n" * self.bound)[:-1] % tuple(pairs)


def count_ideals(table, bound, *, _split=None, _towers=None) -> IdealCountSeries:
    """a_n = number of index-n ideal sublattices for n = 1..bound.  The
    descent counts the tower a_1, a_p, ..., a_{p^k} with p^k <= bound at
    each prime p <= bound, and a_n for every other n is the product of the
    a_{p^k} with p^k || n (``IdealCountSeries.from_towers``): a composite
    coefficient is a product of counted ones, by the theorem in the module
    docstring, not a count of its own.  ``_split`` and ``_towers`` are for
    ``pipeline`` alone: the (theta, chi, D) of the ``MaximalOrderData`` of
    a ``decomposition.maximal_order`` that has checked the table, so that
    the count neither checks it again nor looks for a primitive element,
    and {p: [a_1, a_p, ..., a_{p^k}]}, towers already counted by
    ``count_ideals_at_prime`` to a k with p^(k+1) > bound, which the count
    takes instead of walking them again."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    if _split is None:
        check_ring(table)
    split = _split or _splitting_element(table)
    towers = _towers or {}
    primes = primes_up_to(bound)

    def tower(p, kmax):
        return towers[p][: kmax + 1] if p in towers else _descend(table, p, kmax, split)

    large = (towers[p][1] if p in towers else _degree_one_count(table, split, p) for p in primes if p * p > bound)
    return IdealCountSeries.from_towers(bound, primes, tower, large)


def count_ideals_at_prime(table, p, kmax, *, _split=None, _maximal_ideals=None):
    """[a_1, a_p, ..., a_{p^kmax}]: the prime-power restriction, computed
    directly by the descent at p.  ``_split`` is as for count_ideals, and
    ``_maximal_ideals``, also for ``pipeline`` alone, is
    ``modp.maximal_ideals(table, p)``, which the tower then takes instead
    of finding the maximal ideals again."""
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if kmax < 0:
        raise InputError(f"kmax must be at least 0, got {kmax}")
    if _split is None:
        check_ring(table)
    return _descend(table, p, kmax, _split or _splitting_element(table), _maximal_ideals)


def _descend(table, p, kmax, split, ms=None):
    """[a_1, a_p, ..., a_{p^kmax}]: the number of ideals of index p^k for
    each k <= kmax, for ``ms`` the maximal ideals of Lambda/pLambda, or
    None to find them (``_maximal``).  A tower of depth 1 is [1, the
    number of maximal ideals of residue degree 1 above p]
    (``_degree_one_count``, which reads the roots of chi mod p off
    ``split``, from ``_splitting_element``, when p does not divide D).

    A deeper tower is the convolution, truncated at kmax, of one tower per
    maximal ideal m of Lambda/pLambda (``_walk``): that of the ideals I
    of p-power index with Lambda/I supported at m alone.  For an ideal I
    of index p^k, Lambda/I is the direct sum of its localizations at the m
    in its support (Solomon 1977; Bushnell-Reiner 1980), and the kernel
    I_m of Lambda -> (Lambda/I)_m is an ideal with Lambda/I_m supported at
    m alone (or Lambda, if m is not in the support).  I is the
    intersection of the I_m and its index the product of theirs; and
    conversely, for such ideals I_m, one per m, the I_m are pairwise
    comaximal, so Lambda/(intersection) is the product of the Lambda/I_m
    and the intersection gives them back.  So the ideals of index p^k match
    the tuples (I_m) whose indices multiply to p^k."""
    if kmax < 2:  # no index p^2: count the maximal ideals of residue degree 1, if there is an index p
        return [1, _degree_one_count(table, split, p, ms)] if kmax else [1]
    ms = _maximal(table, p, split) if ms is None else ms
    tower = [1] + [0] * kmax
    for m in ms:
        block = _walk(table, p, kmax, m, len(ms) == 1)
        tower = [sum(tower[i] * block[k - i] for i in range(k + 1)) for k in range(kmax + 1)]
    return tower


def _walk(table, p, kmax, m, local):
    """[1, b_1, ..., b_kmax]: b_k is the number of ideals I of index p^k
    with Lambda/I supported at the maximal ideal m of Lambda/pLambda alone,
    for kmax >= 2.  ``local`` says whether m is the only maximal ideal.

    Level by level from Lambda.  An ideal I of index p^k gets, if
    k + f <= kmax, the children J with mI <= J < I and I/J = F_q, q = p^f:
    the F_q-hyperplanes of I/mI.  Every ideal J of the walk is reached:
    every simple subquotient of Lambda/J is Lambda/m, so a composition
    series Lambda = K_0 > K_1 > ... > K_n = J has mK_i <= K_(i+1), and
    each K_i, whose Lambda/K_i is a quotient of Lambda/J, is in the walk.
    Children are kept by canonical HNF, so an ideal reached from several
    parents is counted once.

    If m is not the only maximal ideal, no ideal of the walk is inside
    p Lambda: Lambda/I would map onto Lambda/pLambda, whose support is
    every maximal ideal.  If it is, the walk holds every ideal of p-power
    index, and level k >= r (r the rank) drops the ideals inside p Lambda
    and counts them as b_(k-r) (the module docstring); no path to a kept
    ideal passes through them, since every ideal on it contains the kept
    one.

    The last level is counted, not built.  Let J be an ideal of the walk
    of index p^k, k >= 1.  The K with mK <= J < K are the K with
    J < K <= (J : m), and K/J runs over the nonzero F_q-subspaces N of
    (J : m)/J, which is not 0 since m is in J's support.  Each such K is
    in the walk, since Lambda/K is a quotient of Lambda/J.  On
    the subspaces of an F_q-space, -mu(0, N) = (-1)^(c+1) q^(c(c-1)/2) for
    N of dimension c (Rota 1964), and the sum over the N != 0 is 1
    (``_moebius_terms``).  So b_k is the Moebius sum, over the ideals K of
    the walk of index p^j < p^k with j + c f = k for a c >= 1,
    of (-1)^(c+1) q^(c(c-1)/2) times [d/f, c]_q, the number of the J of
    index p^k with mK <= J < K; here d = dim_Fp K/mK = r - len(w), for w
    the echelon basis of mK/pK that the children are built from.  An
    ideal pK' inside p Lambda has dim pK'/m pK' = dim K'/mK', so when m
    is the only maximal ideal each level keeps how many of its ideals,
    those inside p Lambda included, have each dimension d.  Each level
    below kmax is built, and its count is checked against its Moebius sum:
    a difference raises ArithmeticError.  b_kmax is the sum alone."""
    r, f = len(table), m.f
    q = p**f
    gens = [action_matrix(table, g) for g in m.generators]
    # b_1 .. b_(r-1), for the hyperplanes at a residue degree f > 1; b_0 is the identity
    acts = [action_matrix(table, e) for e in unit_vectors(r)[1:]] if f > 1 else None
    # k < kmax -> the HNF rows of the ideals of index p^k; level kmax is never built
    levels = [{tuple(unit_vectors(r))}] + [set() for _ in range(kmax - 1)]
    sums = [0] * (kmax + 1)  # k -> the Moebius sum for b_k
    # k -> {d: the number of ideals I of index p^k, inside p Lambda or not, with dim I/mI = d}
    dims = [{} for _ in range(kmax)]
    terms = {}  # n -> _moebius_terms(n, q)

    def add(k, d, times=1):
        """Add to the sum at each index p^(k + c f) <= p^kmax the terms of
        ``times`` ideals I of index p^k with dim I/mI = d."""
        n = d // f
        if n not in terms:
            terms[n] = _moebius_terms(n, q)
        for c, term in enumerate(terms[n][: (kmax - k) // f], 1):
            sums[k + c * f] += times * term

    counts = []
    for k, level in enumerate(levels):
        inside = local and k >= r
        if inside:  # drop the ideals inside p Lambda: p times those of index p^(k - r)
            level = {rows for rows in level if any(x % p for row in rows for x in row)}
            for d, times in dims[k - r].items():
                add(k, d, times)
            dims[k] = dict(dims[k - r])
        counts.append(len(level) + (counts[k - r] if inside else 0))
        if k and sums[k] != counts[k]:
            raise ArithmeticError(
                f"at p = {p}, index p^{k}: the descent built {counts[k]} ideals, the Moebius sum is {sums[k]}"
            )
        if k + f > kmax:
            continue
        for rows in level:
            # mI / pI in the coordinates of I: the generators of m times the rows of I
            w = rref([c for g in gens for c in _products(rows, g)], p)
            d = r - len(w)
            add(k, d)
            dims[k][d] = dims[k].get(d, 0) + 1
            if k + f == kmax:  # counted by the Moebius sum, not built
                continue
            if f == 1:
                children = _degree_one_children(rows, w, p)
            else:  # if I/mI = F_q, its one hyperplane is 0
                subs = (w,) if d == f else _hyperplanes(w, f, [_products(rows, a) for a in acts], p, r)
                children = (_sublattice(rows, sub, p) for sub in subs)
            levels[k + f].update(children)
    counts.append(sums[kmax])
    return counts


def _moebius_terms(n, q):
    """[(-1)^(c+1) q^(c(c-1)/2) [n, c]_q for c = 1 .. n]: -mu(0, N) for a
    subspace N of dimension c of F_q^n in its lattice of subspaces (Rota
    1964), times the number [n, c]_q of such N.  They sum to 1, the
    q-binomial theorem prod_(i<n) (1 + q^i x) = sum_c q^(c(c-1)/2) [n, c]_q
    x^c at x = -1.  Each Gaussian binomial is exact: [n, c]_q = [n, c-1]_q
    (q^(n-c+1) - 1) / (q^c - 1)."""
    out, binom = [], 1
    for c in range(1, n + 1):
        binom = binom * (q ** (n - c + 1) - 1) // (q**c - 1)
        out.append((-1) ** (c + 1) * q ** (c * (c - 1) // 2) * binom)
    return out


def _splitting_element(table):
    """(theta, chi, D): the first of ``algebra.primitive_elements``, or None
    if there is none.  Any primitive element serves a root count."""
    return next(primitive_elements(table), None)


def _maximal(table, p, split):
    """The maximal ideals of Lambda/pLambda, ordered by their bases: if p
    does not divide D, for (theta, chi, D) = ``split``, the (g(theta)) for
    the irreducible factors g of chi mod p (``modp.factor``; the module
    docstring), each with the echelon basis of g(theta) Lambda and the
    generator g(theta) if it is not 0; otherwise ``maximal_ideals(table,
    p)``."""
    if split and split[2] % p:
        out = []
        for g in factor(split[1], p):
            at = (g[-1],) + (0,) * (len(table) - 1)  # g(theta) by Horner's rule
            for x in reversed(g[:-1]):
                at = multiply(table, at, split[0], p)
                at = ((at[0] + x) % p, *at[1:])
            basis = rref(action_matrix(table, at), p)
            out.append(MaximalIdeal(len(g) - 1, basis, (at,) if basis else ()))
        return sorted(out, key=lambda m: m.basis)
    return maximal_ideals(table, p)


def _degree_one_count(table, split, p, ms=None):
    """The number of maximal ideals of residue degree 1 of Lambda/pLambda,
    for (theta, chi, D) from ``_splitting_element``, or None if there is
    none.  If p does not divide D it is the number of roots of chi mod p,
    the (theta - a) of the module docstring; otherwise it is read off
    ``ms``, or if that is None off ``modp.maximal_ideals``."""
    if split and split[2] % p:
        return root_count(split[1], p)
    return sum(1 for m in (maximal_ideals(table, p) if ms is None else ms) if m.f == 1)


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
    U/w an F_q-hyperplane of V = F_p^r / w, q = p^f > p, where V is an
    F_q-vector space (the descent builds the children at f = 1 in
    ``_degree_one_children``).  V is coordinatized by the columns where
    no row of w starts.  With b_j acting on F_p^r by mats[j-1], each
    F_p-functional phi on V gives the largest submodule {v : phi(a v) = 0
    for all a} in its kernel, which is the kernel of the F_q-functional
    whose trace is phi.  Every nonzero F_p-functional that vanishes on U
    gives U again, so once U is found the (q-1)/(p-1) projective points
    of its annihilator are skipped: the functionals v -> phi(v b_j), the
    columns of the matrix whose kernel is U, span it, since the b_j map
    onto Lambda/m = F_q.  So each U is found once."""
    piv = dict(zip(pivots(w), w))
    free = [c for c in range(r) if c not in piv]
    dim = len(free)

    def reduce(v):
        "The free coordinates of v modulo w."
        for c, b in piv.items():
            x = v[c]
            if x:
                v = [vi - x * bi for vi, bi in zip(v, b)]
        return [v[c] % p for c in free]

    on_v = [[reduce(mat[c]) for c in free] for mat in mats]  # b_j on V; b_0 is the identity
    out, found = [], set()  # found: the functionals that vanish on a U in out
    for phi in _projective_points(dim, p):
        if phi in found:
            continue
        # row t: phi(e_t b_j) for every j, e_t the t-th basis vector of V
        rows = [[phi[t]] + [sum(x * y for x, y in zip(mat[t], phi)) for mat in on_v] for t in range(dim)]
        ker = kernel(rows, p)
        # U's annihilator, echelon, so a combination with first coefficient 1 starts with 1
        ann = rref(list(zip(*rows)), p)
        for cs in _projective_points(len(ann), p):
            found.add(tuple(sum(c * a[t] for c, a in zip(cs, ann)) % p for t in range(dim)))
        lifted = []
        for u in ker:
            v = [0] * r
            for col, x in zip(free, u):
                v[col] = x
            lifted.append(v)
        out.append(rref(list(w) + lifted, p))
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


def _degree_one_children(rows, w, p):
    """The canonical HNFs of the children J of an ideal I at a maximal
    ideal m of residue degree 1, for the HNF rows R_0 .. R_(r-1) of I and
    the echelon basis w of mI/pI in their coordinates: the kernels of the
    nonzero functionals phi on I/pI = F_p^r that vanish on w, up to
    scalars.  Scale phi to 1 at the last column c where no row of w starts
    and phi is nonzero; its values at the earlier such columns are free,
    and at the pivot l of a row w_l they follow from phi(w_l) = 0, which
    makes them 0 for l > c.  J holds R_j - phi(e_j) R_c for j != c, which
    is R_j for j > c, and p R_c: triangular rows whose diagonal is I's but
    p d_c at c, so they span J, of index p in I.  Their entries are
    reduced at every column up to c, so only the rows up to c need
    reducing, after c, by the rows of I there."""
    piv = pivots(w)
    free = [c for c in range(len(rows)) if c not in piv]
    for i, c in enumerate(free):
        after = rows[c + 1 :]
        top = _reduced([p * x for x in rows[c]], after)
        for entries in product(range(p), repeat=i):
            a = dict(zip(free, entries))  # a[j] = -phi(e_j) mod p for j < c
            for u, l in zip(w, piv):
                if l < c:
                    a[l] = (u[c] - sum(u[j] * e for j, e in zip(free, entries))) % p
            out = [_reduced([x + a[j] * y for x, y in zip(rows[j], rows[c])], after) if a[j] else rows[j] for j in range(c)]
            yield (*out, top, *after)


def _reduced(v, after):
    """v with each entry above the diagonal of the HNF rows ``after``, the
    last rows of an HNF, reduced into [0, d) by those rows, in turn."""
    for j, row in enumerate(after, len(v) - len(after)):
        t = v[j] // row[j]
        if t:
            v = [x - t * y for x, y in zip(v, row)]
    return tuple(v)
