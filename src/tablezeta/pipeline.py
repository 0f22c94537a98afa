"""End-to-end order analysis and verification.

verify_order runs the whole cross-check: brute-force ideal counts on one
side, Euler-product assembly (Dedekind factors at good primes, inferred
exceptional polynomials at bad primes) on the other, compared
coefficient-by-coefficient with no tolerance.
"""

from dataclasses import dataclass, field

from .algebra import TableAlgebra
from .decomposition import (
    MaximalOrderData,
    RationalDecomposition,
    factor_min_poly,
    find_generator,
    maximal_order,
    primitive_idempotents,
)
from .dirichlet import (
    DirichletSeries,
    LocalRationalFunction,
    assemble_global,
    infer_local_polynomial,
    maximal_local_factor,
)
from .errors import InputError, NotStabilized
from .ideals import count_ideals, count_ideals_at_prime
from .polys import pmul


@dataclass
class AnalyzedOrder:
    algebra: TableAlgebra
    decomposition: RationalDecomposition
    order: MaximalOrderData


def analyze(t: TableAlgebra) -> AnalyzedOrder:
    gen, mu = find_generator(t)
    factors = factor_min_poly(mu)
    idems = primitive_idempotents(t, gen, factors)
    data = maximal_order(t)
    decomp = RationalDecomposition(
        generator_index=gen,
        minpoly=mu,
        factors=factors,
        idempotents=idems,
        component_rings=data.rings,
    )
    return AnalyzedOrder(algebra=t, decomposition=decomp, order=data)


def infer_exceptional_factors(t: TableAlgebra, analyzed: AnalyzedOrder, bound, progress=None):
    """For each bad prime, run the oracle deep enough to stabilize the
    quotient by the maximal-order factor; returns {p: (delta_poly, full
    local factor)}."""
    out = {}
    for p in analyzed.order.bad_primes:
        kmax = 5
        while p**kmax <= bound:
            kmax += 1
        kmax = max(kmax, 5)
        base = maximal_local_factor(analyzed.order.rings, p)
        while True:
            if progress:
                print(f"counting ideals of {_label(t)} at p={p} up to p^{kmax} ...", file=progress)
            counts = count_ideals_at_prime(t.lam, p, kmax)
            try:
                delta = infer_local_polynomial(counts, base)
                break
            except NotStabilized:
                if kmax >= 11:
                    raise
                kmax += 3
        full = LocalRationalFunction(p, pmul(delta, base.num), base.den)
        out[p] = (delta, full)
    return out


@dataclass
class VerifyResult:
    passed: bool
    bound: int
    oracle: DirichletSeries
    assembled: DirichletSeries
    deltas: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)


def _assembled(t: TableAlgebra, bound, progress):
    """(exceptional factors, assembled series a_1..a_bound): analyze, infer
    the bad-prime factors, assemble the Euler product."""
    if bound < 1:
        raise InputError(f"the index bound must be at least 1, got {bound}")
    analyzed = analyze(t)
    exc = infer_exceptional_factors(t, analyzed, bound, progress)
    assembled = assemble_global(
        analyzed.order.rings,
        analyzed.order.bad_primes,
        {p: full for p, (_, full) in exc.items()},
        bound,
    )
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
        deltas={p: delta for p, (delta, _) in exc.items()},
        mismatches=mismatches,
    )


def _label(t: TableAlgebra):
    return "algebra" if t.names is None else "{" + ", ".join(t.names) + "}"
