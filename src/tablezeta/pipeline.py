"""End-to-end order analysis and verification.

verify_order runs the whole cross-check: brute-force ideal counts on one
side, Euler-product assembly (Dedekind factors at good primes, inferred
exceptional polynomials at bad primes) on the other, compared
coefficient-by-coefficient with no tolerance.
"""

from dataclasses import dataclass, field

from .algebra import TableAlgebra
from .decomposition import MaximalOrderData, maximal_order
from .dirichlet import (
    DirichletSeries,
    LocalRationalFunction,
    assemble_global,
    infer_local_polynomial,
    maximal_local_factor,
)
from .errors import InputError
from .ideals import count_ideals, count_ideals_at_prime
from .polys import pmul


@dataclass
class ExceptionalFactor:
    """The local factor at a bad prime p: delta (the exceptional polynomial),
    full = delta times the maximal-order factor, the proven bound D_p on
    deg delta, and the depth k to which the oracle counted a_{p^k}."""

    delta: tuple
    full: LocalRationalFunction
    degree_bound: int
    depth: int


def infer_exceptional_factors(t: TableAlgebra, order: MaximalOrderData, bound, progress=None):
    """For each bad prime p, count ideals at p once, to depth
    max(D_p, floor(log_p bound)), and divide by the maximal-order factor;
    D_p (MaximalOrderData.degree_bound) makes the quotient exact.  Returns
    {p: ExceptionalFactor}."""
    out = {}
    for p in order.bad_primes:
        degree_bound = order.degree_bound(p)
        depth = degree_bound
        while p ** (depth + 1) <= bound:
            depth += 1
        if progress:
            print(f"counting ideals of {_label(t)} at p={p} up to p^{depth}, D_{p} = {degree_bound} ...", file=progress)
        base = maximal_local_factor(order.rings, p)
        delta = infer_local_polynomial(count_ideals_at_prime(t.lam, p, depth), base, degree_bound)
        full = LocalRationalFunction(p, pmul(delta, base.num), base.den)
        out[p] = ExceptionalFactor(delta, full, degree_bound, depth)
    return out


@dataclass
class VerifyResult:
    """The oracle against the assembled series to bound.  factors[p] is the
    ExceptionalFactor at the bad prime p: delta_p, its proven degree bound
    D_p and the depth to which a_{p^k} was counted to determine it."""

    passed: bool
    bound: int
    oracle: DirichletSeries
    assembled: DirichletSeries
    factors: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)

    @property
    def deltas(self):
        return {p: f.delta for p, f in self.factors.items()}


def _assembled(t: TableAlgebra, bound, progress):
    """(exceptional factors, assembled series a_1..a_bound): analyse the
    order, infer the bad-prime factors, assemble the Euler product."""
    if bound < 1:
        raise InputError(f"the index bound must be at least 1, got {bound}")
    order = maximal_order(t)
    exc = infer_exceptional_factors(t, order, bound, progress)
    assembled = assemble_global(order.rings, order.bad_primes, {p: f.full for p, f in exc.items()}, bound)
    return exc, assembled


def zeta_series(t: TableAlgebra, bound, progress=None) -> DirichletSeries:
    "Assembled Euler-product series with inferred exceptional factors."
    return _assembled(t, bound, progress)[1]


def verify_order(t: TableAlgebra, bound, progress=None) -> VerifyResult:
    exc, assembled = _assembled(t, bound, progress)
    if progress:
        print(f"counting all ideals of {_label(t)} up to index {bound} ...", file=progress)
    oracle = count_ideals(t.lam, bound)
    mismatches = [
        (n, oracle.a(n), assembled.a(n)) for n in range(1, bound + 1) if oracle.a(n) != assembled.a(n)
    ]
    return VerifyResult(
        passed=not mismatches,
        bound=bound,
        oracle=DirichletSeries(bound, oracle.counts),
        assembled=assembled,
        factors=exc,
        mismatches=mismatches,
    )


def _label(t: TableAlgebra):
    return "algebra" if t.names is None else "{" + ", ".join(t.names) + "}"
