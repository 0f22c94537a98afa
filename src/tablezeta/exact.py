"""Exact integer and rational linear algebra.

Everything here works on plain Python ints / Fractions: matrices are
tuples of tuples, vectors are tuples.  Lattices are row-generated; a
Hermite normal form is upper triangular with positive diagonal and
off-diagonal entries reduced modulo the diagonal of their column.
"""

from fractions import Fraction
from math import isqrt


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
    return [p for p in range(2, n + 1) if sieve[p]]


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


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vec_mat(v, m):
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


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
    return abs_prod([h[i][i] for i in range(len(h))])


def abs_prod(xs):
    out = 1
    for x in xs:
        out *= x
    return abs(out)


# --- Fraction matrices -----------------------------------------------------


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


def fmat_solve(a, b):
    "Solve x * a == b for a single row vector b (a square, invertible)."
    inv = fmat_inv(a)
    return vec_mat(tuple(Fraction(x) for x in b), inv)


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
