"""Integral table algebras given by structure constants.

A table algebra here is a based ring: basis b_0 = 1, b_1, ..., b_d with
nonnegative integer structure constants lambda[i][j][k] (b_i b_j =
sum_k lambda[i][j][k] b_k), an involution permutation i -> i*, and the
pseudo-inverse axiom: lambda[i][j][0] > 0 exactly when j = i*, with
lambda[i][i*][0] == lambda[i*][i][0].  Commutativity is required
throughout this package.

Every other module reads lambda through the primitives here: the product
``multiply``, the action matrix ``action_matrix``, the candidate
primitive elements ``primitive_elements``, the ring axioms
``ring_violations`` and the gate ``check_ring``, which refuses a tensor
that is not the table of a commutative, associative ring with identity
b_0 before anything is computed on it.
"""

import enum
from dataclasses import dataclass, field
from itertools import product

from .errors import InputError, NonCommutative
from .exact import charpoly, discriminant, int_tuple


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
        lam = tuple(tuple(int_tuple(row) for row in plane) for plane in self.lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "involution", int_tuple(self.involution))
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
        return multiply(self.lam, u, v)


def multiply(lam, u, v):
    """The product sum_ij u_i v_j b_i b_j of two coefficient vectors (ints
    or Fractions), exactly: the one contraction of lambda with two
    vectors."""
    out = [0] * len(lam)
    for i, ui in enumerate(u):
        if ui:
            plane = lam[i]
            for j, vj in enumerate(v):
                if vj:
                    c = ui * vj
                    for k, x in enumerate(plane[j]):
                        if x:
                            out[k] += c * x
    return tuple(out)


def unit_vectors(r):
    "The coefficient vectors of b_0, ..., b_(r-1)."
    return [tuple(int(i == j) for j in range(r)) for i in range(r)]


def action_matrix(lam, g):
    """The action matrix of g: row l is g b_l = sum_i g_i lambda[i][l], so
    x . A is g x for a row vector x."""
    out = [[0] * len(lam) for _ in lam]
    for gi, plane in zip(g, lam):
        if gi:
            for row, lam_row in zip(out, plane):
                for k, x in enumerate(lam_row):
                    if x:
                        row[k] += gi * x
    return tuple(map(tuple, out))


def primitive_elements(lam):
    """(theta, chi, D) for each of b_1, ..., b_(r-1), then b_1 + 2 b_2 + ...
    + (r-1) b_(r-1) (b_0 at rank 1), whose characteristic polynomial chi
    has a nonzero discriminant D = ``exact.discriminant(chi)``: chi is then
    squarefree and, by Cayley-Hamilton, the minimal polynomial of theta, so
    Q Lambda = Q[theta].  The generator search and the descent share it."""
    r = len(lam)
    unit = unit_vectors(r)
    for theta in unit[1:] + [tuple(range(r))] if r > 2 else unit[r - 1 :]:
        chi = charpoly(action_matrix(lam, theta))
        disc = discriminant(chi)
        if disc:
            yield theta, chi, disc


def ring_violations(lam):
    """(axiom, detail) for each failure of the ring axioms, in order:
    commutativity, b_0 as the identity on both sides, then associativity,
    which compares (b_i b_j) b_k with b_i (b_j b_k) and so does not assume
    commutativity."""
    r = len(lam)
    unit = unit_vectors(r)
    for i in range(r):
        for j in range(i + 1, r):
            if tuple(lam[i][j]) != tuple(lam[j][i]):
                yield "commutativity", f"b{i} b{j} != b{j} b{i}"
    for j in range(r):
        if tuple(lam[0][j]) != unit[j]:
            yield "identity", f"b0 b{j} != b{j}"
        if tuple(lam[j][0]) != unit[j]:
            yield "identity", f"b{j} b0 != b{j}"
    for i, j, k in product(range(r), repeat=3):
        if multiply(lam, lam[i][j], unit[k]) != multiply(lam, unit[i], lam[j][k]):
            yield "associativity", f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})"


_REFUSALS = {
    "commutativity": "the table is not commutative",
    "identity": "b0 is not the identity",
    "associativity": "the table is not associative",
}


def check_ring(lam):
    """Refuse a tensor that is not the table of a commutative, associative
    ring with identity b_0: a ragged tensor or a non-integer entry with
    InputError, then the first ring violation, with NonCommutative for
    commutativity and InputError for any other."""
    try:
        r = len(lam)
        ok = r >= 1 and all(len(plane) == r and all(len(int_tuple(row)) == r for row in plane) for plane in lam)
    except TypeError:
        ok = False
    if not ok:
        raise InputError("the multiplication table must be an r x r x r tensor with r >= 1")
    for axiom, detail in ring_violations(lam):
        error = NonCommutative if axiom == "commutativity" else InputError
        raise error(f"{_REFUSALS[axiom]}: {detail}")


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
    for i, j, k in product(range(d), repeat=3):
        if lam[i][j][k] < 0:
            rep.add("nonnegativity", f"lambda[{i}][{j}][{k}] = {lam[i][j][k]}")
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
    for axiom, detail in ring_violations(lam):
        rep.add(axiom, detail)
    return rep
