"""Exact integer linear algebra and elementary number theory.

Everything here works on plain Python ints: matrices are tuples of
tuples, vectors are tuples, and no Fraction matrix is formed.  Lattices
are row-generated; a Hermite normal form is upper triangular with
positive diagonal and off-diagonal entries reduced modulo the diagonal
of their column.
"""

import operator
from itertools import compress
from math import isqrt, prod

from .errors import InputError


def int_tuple(xs):
    """The entries of xs as a tuple of ints.  An entry that is not an
    integer (1.5, Fraction(3, 2), even 1.0) raises InputError; it is never
    truncated."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError as e:
        raise InputError(f"expected integers: {e}") from None


def valuation(n, p):
    "p-adic valuation of a nonzero integer."
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorize(n):
    "Trial-division factorization; returns {prime: exponent}."
    n = abs(n)
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


def primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(n + 1), sieve))


def divisors(n):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def squarefree_kernel(n):
    "Write n = t^2 * k with k squarefree; returns (k, t).  Sign stays on k."
    sign = -1 if n < 0 else 1
    t = 1
    k = 1
    for p, e in factorize(n).items():
        t *= p ** (e // 2)
        if e % 2:
            k *= p
    return sign * k, t


# --- integer matrices ------------------------------------------------------


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def hnf(rows):
    """Row Hermite normal form of an integer matrix (full column rank not
    required).  Returns the HNF with zero rows dropped."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(ncols):
        # find a pivot at or below pivot_row
        piv = None
        for r in range(pivot_row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[pivot_row], m[piv] = m[piv], m[pivot_row]
        # clear below with extended gcd steps
        for r in range(pivot_row + 1, nrows):
            while m[r][col] != 0:
                q = m[pivot_row][col] // m[r][col]
                for c in range(ncols):
                    m[pivot_row][c] -= q * m[r][c]
                m[pivot_row], m[r] = m[r], m[pivot_row]
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
        # reduce the entries above the pivot
        d = m[pivot_row][col]
        if d != 0:
            for r in range(pivot_row):
                q = m[r][col] // d
                if q:
                    for c in range(ncols):
                        m[r][c] -= q * m[pivot_row][c]
            pivot_row += 1
    return tuple(tuple(r) for r in m[:pivot_row])


def hnf_square(rows):
    "HNF of a full-rank square lattice basis; raises if rank deficient."
    h = hnf(rows)
    n = len(rows[0])
    if len(h) != n:
        from .errors import NotFullRank

        raise NotFullRank(f"expected rank {n}, got {len(h)}")
    return h


def lattice_det(h):
    return abs(prod(h[i][i] for i in range(len(h))))


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: after step k every entry of the trailing block is a
    (k+1)-by-(k+1) minor, so each division by the previous pivot is exact
    and every entry stays an integer (E. H. Bareiss, Math. Comp. 22 (1968)
    565-578)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - lead * top[c]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def charpoly(m):
    """Characteristic polynomial det(xI - M) of an integer matrix, monic,
    as a tuple of integer coefficients in ascending order.
    Faddeev-LeVerrier in integers: each M_k is an integer matrix and its
    trace is -k times an integer coefficient, so every division is exact.
    """
    n = len(m)
    cs = [0] * n + [1]
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            c = cs[n - k + 1]
            mk = mat_mul(m, tuple(tuple(x + c * (i == j) for j, x in enumerate(row)) for i, row in enumerate(mk)))
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("characteristic polynomial not integral")
        cs[n - k] = -tr // k
    return tuple(cs)


def discriminant(f):
    """Discriminant of a monic integer polynomial f of any degree, given by
    ascending coefficients: the determinant of the Hankel matrix of the
    power sums s_k of its roots, s_0 .. s_(2n-2) by Newton's identities.
    That matrix is V^T V for the Vandermonde matrix V of the roots, so its
    determinant is prod_(i<j) (r_i - r_j)^2; it is taken in integers by
    ``bareiss_det``.  A polynomial that is not monic raises InputError."""
    f = int_tuple(f)
    n = len(f) - 1
    if n < 0 or f[-1] != 1:
        raise InputError(f"discriminant needs a monic polynomial, got {f}")
    s = [n]
    for k in range(1, 2 * n - 1):
        s.append(-(k * f[n - k] if k <= n else 0) - sum(f[n - i] * s[k - i] for i in range(1, min(k - 1, n) + 1)))
    return bareiss_det([s[i : i + n] for i in range(n)])
