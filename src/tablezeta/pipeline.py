"""End-to-end order analysis and verification.

verify_order runs the whole cross-check: brute-force ideal counts on one
side, Euler-product assembly (Dedekind factors at good primes, inferred
exceptional polynomials at bad primes) on the other, compared
coefficient-by-coefficient with no tolerance.  It counts once: a bad
prime's a_1, a_p, ..., a_{p^k} are read off the oracle's count when
p^k <= N, and only a tower that must go past N is counted on its own.
It analyses the table once: maximal_order checks the ring and finds
(theta, chi, D), and the count and the towers take both from its record.
"""

from dataclasses import dataclass, field

from .algebra import TableAlgebra
from .decomposition import MaximalOrderData, maximal_order
from .dirichlet import (
    LocalRationalFunction,
    assemble_global,
    complete_local_polynomial,
    infer_local_polynomial,
    maximal_local_factor,
)
from .errors import InputError
from .exact import valuation
from .ideals import IdealCountSeries, count_ideals, count_ideals_at_prime
from .modp import is_gorenstein, maximal_ideals


@dataclass
class ExceptionalFactor:
    """The local factor at a bad prime p: delta (the exceptional polynomial),
    full = delta times the maximal-order factor, ell = v_p[Lambda_0 : Lambda],
    the proven bound D_p on deg delta, whether Lambda_p is Gorenstein, and
    the depth k to which the oracle counted a_{p^k}."""

    delta: tuple
    full: LocalRationalFunction
    ell: int
    degree_bound: int
    gorenstein: bool
    depth: int


def oracle_depth(p, ell, degree_bound, gorenstein, bound):
    """The depth k to which a_{p^k} is counted at a bad prime p: ell where
    Lambda_p is Gorenstein, D_p elsewhere, and on while p^(k+1) <= bound."""
    depth = ell if gorenstein else degree_bound
    while p ** (depth + 1) <= bound:
        depth += 1
    return depth


def infer_exceptional_factors(t: TableAlgebra, order: MaximalOrderData, bound, progress=None, oracle=None, maximal=None):
    """For each bad prime p, count a_1, a_p, ..., a_{p^k} once and divide by
    the maximal-order factor.  Returns {p: ExceptionalFactor}.

    Where Lambda_p is Gorenstein (``modp.is_gorenstein``), the count goes to
    k = max(ell, floor(log_p bound)), ell = v_p[Lambda_0 : Lambda], and
    delta_p is completed by the functional equation
    c_(2 ell - k) = p^(ell - k) c_k (``dirichlet.complete_local_polynomial``).
    That is the functional equation of Gorenstein orders: V. M. Galkin,
    Izv. Akad. Nauk SSSR 37 (1973), and K.-O. Stoehr, J. Number Theory 71
    (1998), for curves; Z. Yun, Orbital integrals and Dedekind zeta
    functions (2013), for an order R over the integers O_F of a p-adic field
    F in an etale F-algebra, with R~ its normalization and q the size of
    O_F's residue field: if R is Gorenstein, zeta_R(s) / zeta_R~(s) is a
    polynomial in q^-s of degree 2 delta_R, delta_R the O_F-length of
    R~/R, equal to q^(delta_R (1 - 2s)) times itself at 1 - s.  In t = q^-s
    that is the equation above.  It applies with F = Q_p, q = p and
    R = Lambda_p: Q_p Lambda is a product of p-adic fields, because Q Lambda
    is a product of number fields, so Lambda_p is reduced and
    one-dimensional; its normalization, the maximal Z_p-order, is
    Z_p Lambda_0, so delta_R = ell; and the ideals of finite index of
    Lambda_p are the I_p of the ideals I of Lambda of p-power index, so
    zeta_R(s) = sum_k a_{p^k} t^k.  Every count past ell is checked against
    the completed delta_p, and one that disagrees raises
    FunctionalEquationFailed (exit 2).  Elsewhere the count goes to
    max(D_p, floor(log_p bound)) (MaximalOrderData.degree_bound), which makes
    the quotient exact.

    ``oracle``, if given, is count_ideals(t.lam, N): the counts are read off
    it when p^k <= N.  ``maximal`` is a dict {p: modp.maximal_ideals(t.lam, p)}
    that the socle test and the counts share and add to."""
    maximal = {} if maximal is None else maximal
    out = {}
    for p in order.bad_primes:
        ell, degree_bound = valuation(order.index, p), order.degree_bound(p)
        if p not in maximal:
            maximal[p] = maximal_ideals(t.lam, p)
        gorenstein = is_gorenstein(t.lam, maximal[p], p)
        depth = oracle_depth(p, ell, degree_bound, gorenstein, bound)
        read = oracle is not None and p**depth <= oracle.bound
        if progress:
            fit = f"to t^{ell} and fixed by the functional equation to t^{2 * ell}" if gorenstein else f"to t^{degree_bound}"
            at = f"a_{{{p}^k}} for k <= {depth}"
            source = f"{at} read off the count to {oracle.bound}" if read else f"counting {at} at p={p} alone ..."
            print(
                f"bad prime {p} of {_label(t)}: l = {ell}, D_{p} = {degree_bound}, "
                f"{'' if gorenstein else 'not '}Gorenstein; delta_{p} fitted {fit}; "
                f"a_{{{p}^k}} predicted for k > {depth}; {source}",
                file=progress,
            )
        base = maximal_local_factor(order.rings, p)
        if read:
            counts = [oracle.a(p**k) for k in range(depth + 1)]
        else:
            counts = count_ideals_at_prime(t.lam, p, depth, maximal, _split=_split_of(order))
        if gorenstein:
            delta = complete_local_polynomial(counts, base, ell)
        else:
            delta = infer_local_polynomial(counts, base, degree_bound)
        out[p] = ExceptionalFactor(delta, base * delta, ell, degree_bound, gorenstein, depth)
    return out


@dataclass
class VerifyResult:
    """The oracle against the assembled series to bound.  factors[p] is the
    ExceptionalFactor at the bad prime p: delta_p, ell, its proven degree
    bound D_p, the Gorenstein verdict and the depth to which a_{p^k} was
    counted to determine it."""

    passed: bool
    bound: int
    oracle: IdealCountSeries
    assembled: IdealCountSeries
    factors: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)

    @property
    def deltas(self):
        return {p: f.delta for p, f in self.factors.items()}


def _analyzed(t: TableAlgebra, bound):
    if bound < 1:
        raise InputError(f"the index bound must be at least 1, got {bound}")
    return maximal_order(t)


def _split_of(order):
    "(theta, chi, D) of the table that maximal_order has checked, for the counts."
    return order.generator, order.minpoly, order.discriminant


def _assemble(order, exc, bound):
    return assemble_global(order.rings, order.bad_primes, {p: f.full for p, f in exc.items()}, bound)


def zeta_series(t: TableAlgebra, bound, progress=None) -> IdealCountSeries:
    "Assembled Euler-product series with inferred exceptional factors."
    order = _analyzed(t, bound)
    return _assemble(order, infer_exceptional_factors(t, order, bound, progress), bound)


def verify_order(t: TableAlgebra, bound, progress=None) -> VerifyResult:
    """Count every ideal to bound, infer the bad-prime factors, reading
    their counts off that one count where it reaches, and compare it with
    the assembled Euler product."""
    order = _analyzed(t, bound)
    if progress:
        print(f"counting all ideals of {_label(t)} up to index {bound} ...", file=progress)
    maximal = {}
    oracle = count_ideals(t.lam, bound, maximal, _split=_split_of(order))
    exc = infer_exceptional_factors(t, order, bound, progress, oracle, maximal)
    assembled = _assemble(order, exc, bound)
    mismatches = [
        (n, oracle.a(n), assembled.a(n)) for n in range(1, bound + 1) if oracle.a(n) != assembled.a(n)
    ]
    return VerifyResult(
        passed=not mismatches,
        bound=bound,
        oracle=oracle,
        assembled=assembled,
        factors=exc,
        mismatches=mismatches,
    )


def _label(t: TableAlgebra):
    return "algebra" if t.names is None else "{" + ", ".join(t.names) + "}"
