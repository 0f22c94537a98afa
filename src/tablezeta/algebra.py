"""Integral table algebras given by structure constants.

A table algebra here is a based ring: basis b_0 = 1, b_1, ..., b_d with
nonnegative integer structure constants lambda[i][j][k] (b_i b_j =
sum_k lambda[i][j][k] b_k), an involution permutation i -> i*, and the
pseudo-inverse axiom: lambda[i][j][0] > 0 exactly when j = i*, with
lambda[i][i*][0] == lambda[i*][i][0].  Commutativity is required
throughout this package.
"""

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NonCommutative, NonIntegralRescale
from .exact import charpoly
from .polys import AlgebraicNumber, factor_rational, largest_real_root, squarefree_part


class BasisKind(enum.Enum):
    STANDARD = "standard"
    TRANSITIONAL = "transitional"
    RAW = "raw"


@dataclass(frozen=True)
class TableAlgebra:
    rank: int
    lam: tuple  # lam[i][j][k], all nonnegative integers
    involution: tuple
    basis_kind: BasisKind = BasisKind.RAW
    names: tuple = None

    def __post_init__(self):
        lam = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in self.lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "involution", tuple(int(x) for x in self.involution))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        d = self.rank
        if len(lam) != d or any(len(p) != d or any(len(r) != d for r in p) for p in lam):
            raise ValueError(f"lambda tensor must be {d}x{d}x{d}")
        if sorted(self.involution) != list(range(d)):
            raise ValueError("involution must be a permutation of the basis indices")

    def name(self, i):
        return self.names[i] if self.names else f"b{i}"

    def multiply(self, u, v):
        "Product of two coefficient vectors in the basis."
        d = self.rank
        out = [0] * d
        for i in range(d):
            if u[i]:
                row = self.lam[i]
                for j in range(d):
                    if v[j]:
                        c = u[i] * v[j]
                        for k in range(d):
                            if row[j][k]:
                                out[k] += c * row[j][k]
        return tuple(out)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, axiom, detail):
        self.violations.append((axiom, detail))

    def __str__(self):
        if self.ok:
            return "valid: identity, involution, pseudo-inverse, associativity, commutativity all hold"
        return "\n".join(f"violated {axiom}: {detail}" for axiom, detail in self.violations)


def validate(t: TableAlgebra) -> ValidationReport:
    "Check every table-algebra axiom; violations are reported, not raised."
    d = t.rank
    lam = t.lam
    rep = ValidationReport()
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if lam[i][j][k] < 0:
                    rep.add("nonnegativity", f"lambda[{i}][{j}][{k}] = {lam[i][j][k]}")
    for j in range(d):
        for k in range(d):
            want = 1 if j == k else 0
            if lam[0][j][k] != want:
                rep.add("identity", f"lambda[0][{j}][{k}] = {lam[0][j][k]}, expected {want}")
            if lam[j][0][k] != want:
                rep.add("identity", f"lambda[{j}][0][{k}] = {lam[j][0][k]}, expected {want}")
    inv = t.involution
    if inv[0] != 0:
        rep.add("involution", f"0* = {inv[0]}, expected 0")
    for i in range(d):
        if inv[inv[i]] != i:
            rep.add("involution", f"({i}*)* = {inv[inv[i]]}")
    for i in range(d):
        for j in range(d):
            pos = lam[i][j][0] > 0
            if pos != (j == inv[i]):
                rep.add(
                    "pseudo-inverse",
                    f"lambda[{i}][{j}][0] = {lam[i][j][0]} but {i}* = {inv[i]}",
                )
        if lam[i][inv[i]][0] != lam[inv[i]][i][0]:
            rep.add("pseudo-inverse", f"lambda[{i}][{i}*][0] != lambda[{i}*][{i}][0]")
    for i in range(d):
        for j in range(i + 1, d):
            if lam[i][j] != lam[j][i]:
                rep.add("commutativity", f"lambda[{i}][{j}] != lambda[{j}][{i}]")
                break
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    lhs = sum(lam[i][j][m] * lam[m][k][l] for m in range(d))
                    rhs = sum(lam[j][k][m] * lam[i][m][l] for m in range(d))
                    if lhs != rhs:
                        rep.add("associativity", f"(b{i} b{j}) b{k} != b{i} (b{j} b{k}) at coordinate {l}")
                        break
                else:
                    continue
                break
    return rep


def _commutative_or_raise(t: TableAlgebra):
    if any(axiom == "commutativity" for axiom, _ in validate(t).violations):
        raise NonCommutative("the table algebra is not commutative")


def regular_representation(t: TableAlgebra, i: int):
    "Matrix M with M[k][j] = lambda[i][j][k]: column j expands b_i * b_j."
    if not 0 <= i < t.rank:
        raise IndexError(f"basis index {i} out of range for rank {t.rank}")
    d = t.rank
    return tuple(tuple(t.lam[i][j][k] for j in range(d)) for k in range(d))


def radical_of_charpoly(m):
    "Squarefree part of the characteristic polynomial (same roots, each once)."
    return squarefree_part(charpoly(m))


def perron_root(m) -> AlgebraicNumber:
    """Largest real eigenvalue of a nonnegative integer matrix, as an exact
    algebraic number (minimal polynomial = its irreducible factor)."""
    _, best = largest_real_root(factor_rational(radical_of_charpoly(m)))
    if best is None:
        raise ArithmeticError("matrix has no real eigenvalue")
    return best


def degree_map(t: TableAlgebra):
    """delta(b_i) for each basis element: the Perron-Frobenius eigenvalue of
    its regular representation.  delta extends to an algebra character."""
    _commutative_or_raise(t)
    return [perron_root(regular_representation(t, i)) for i in range(t.rank)]


def rescale(t: TableAlgebra, target) -> TableAlgebra:
    """Rescale the basis so that lambda[i][i*][0] becomes delta(b_i)
    ('standard') or 1 ('transitional').

    Toward transitional the scale factors are 1/sqrt(lambda[i][i*][0]), so
    each rescaled constant is checked to be the exact integer square root
    of lambda^2 * lambda[kk*0] / (lambda[ii*0] lambda[jj*0]).  Toward
    standard the factors are delta(b_i)/lambda[i][i*][0], evaluated
    exactly in the degree character's field; irrational results raise
    NonIntegralRescale (e.g. the E6 fusion ring, where delta(d) = 1+sqrt(3)
    makes the standard basis non-integral).
    """
    if isinstance(target, str):
        target = BasisKind(target)
    if target not in (BasisKind.STANDARD, BasisKind.TRANSITIONAL):
        raise ValueError("rescale target must be standard or transitional")
    d = t.rank
    inv = t.involution
    pairing = [t.lam[i][inv[i]][0] for i in range(d)]
    if any(x <= 0 for x in pairing):
        raise NonIntegralRescale(0, 0, 0, "pseudo-inverse pairing must be positive")
    new = [[[None] * d for _ in range(d)] for _ in range(d)]
    if target is BasisKind.TRANSITIONAL:
        from math import isqrt

        for i in range(d):
            for j in range(d):
                for k in range(d):
                    sq = Fraction(t.lam[i][j][k] ** 2 * pairing[k], pairing[i] * pairing[j])
                    if sq.denominator != 1:
                        raise NonIntegralRescale(i, j, k, sq)
                    r = isqrt(int(sq))
                    if r * r != int(sq):
                        raise NonIntegralRescale(i, j, k, sq)
                    new[i][j][k] = r
    else:
        from .decomposition import degree_character_values

        _, delta = degree_character_values(t)
        scale = [delta[i] * Fraction(1, pairing[i]) for i in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    val = (scale[i] * scale[j] / scale[k]) * t.lam[i][j][k]
                    if not val.is_rational():
                        raise NonIntegralRescale(i, j, k, val)
                    q = val.rational_value()
                    if q.denominator != 1 or q < 0:
                        raise NonIntegralRescale(i, j, k, q)
                    new[i][j][k] = int(q)
    out = TableAlgebra(
        rank=d,
        lam=tuple(tuple(tuple(row) for row in plane) for plane in new),
        involution=t.involution,
        basis_kind=target,
        names=t.names,
    )
    report = validate(out)
    if not report.ok:
        raise NonIntegralRescale(0, 0, 0, f"rescaled tensor invalid: {report}")
    return out
