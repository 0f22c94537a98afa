"""Built-in table algebras and fusion rings.

Rank-3 association scheme families:

  * drt(u): asymmetric, order n = 4u+3 (doubly regular tournaments), with
    b b* = (2u+1) 1 + u b + u b*  and  b^2 = u b + (u+1) b*.
  * conference(u): symmetric, order n = 4u+1 (conference graphs, n not a
    perfect square), with b1^2 = 2u 1 + (u-1) b1 + u b2 and
    b1 b2 = u b1 + u b2.  The b2^2 row, 2u 1 + u b1 + (u-1) b2, is not
    part of the defining data; conference() derives it and re-validates.

Fusion rings (transitional basis): fib, c2, ising, reps3, psu5l2, e6, c3.
"""

from dataclasses import dataclass
from math import isqrt

from .algebra import BasisKind, TableAlgebra, validate
from .errors import InputError

FUSION_NAMES = ("fib", "c2", "ising", "reps3", "psu5l2", "e6", "c3")


def _family_order(kind: str, u: int) -> int:
    """The order n of the rank-3 family member with parameter u: 4u+3 for
    drt (u >= 0), 4u+1 for conference (u >= 1, n not a perfect square).
    The one copy of the parameter rules; builds no table."""
    if kind == "drt":
        if u < 0:
            raise InputError("drt family needs u >= 0")
        return 4 * u + 3
    if kind == "conference":
        n = 4 * u + 1
        if u < 1:
            raise InputError("conference family needs u >= 1")
        r = isqrt(n)
        if r * r == n:
            raise InputError(f"conference order n = {n} is a perfect square; the character table is rational")
        return n
    raise InputError("order n is defined for the drt and conference families")


def drt(u: int) -> TableAlgebra:
    _family_order("drt", u)
    lam = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        lam[0][k][k] = 1
        lam[k][0][k] = 1
    lam[0][0] = [1, 0, 0]
    lam[1][1] = [0, u, u + 1]
    lam[2][2] = [0, u + 1, u]
    lam[1][2] = [2 * u + 1, u, u]
    lam[2][1] = [2 * u + 1, u, u]
    t = TableAlgebra(3, lam, (0, 2, 1), BasisKind.STANDARD, names=("1", "b", "b*"))
    _must_validate(t, f"drt(u={u})")
    return t


def conference(u: int) -> TableAlgebra:
    """The conference scheme of order n = 4u+1, with
    b2^2 = 2u 1 + u b1 + (u-1) b2.

    Proof of the b2^2 row: let J = 1 + b1 + b2, so b2 = J - 1 - b1.  The
    defining rows give J b1 = b1 + b1^2 + b1 b2 = 2u J.  Associativity,
    (J b1) b2 = J (b1 b2), gives 2u J b2 = u J b1 + u J b2 = 2u^2 J + u J b2,
    so J b2 = 2u J as u >= 1.  Then
    b2^2 = b2 (J - 1 - b1) = 2u J - b2 - (u b1 + u b2) = 2u 1 + u b1 + (u-1) b2.
    That associativity holds for the completed table is checked by
    validation, as for every built-in."""
    _family_order("conference", u)
    lam = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        lam[0][k][k] = 1
        lam[k][0][k] = 1
    lam[0][0] = [1, 0, 0]
    lam[1][1] = [2 * u, u - 1, u]
    lam[1][2] = [0, u, u]
    lam[2][1] = [0, u, u]
    lam[2][2] = [2 * u, u, u - 1]
    t = TableAlgebra(3, lam, (0, 1, 2), BasisKind.STANDARD, names=("1", "b1", "b2"))
    _must_validate(t, f"conference(u={u})")
    return t


def _must_validate(t, label):
    rep = validate(t)
    if not rep.ok:
        raise InputError(f"{label} failed validation:\n{rep}")


def _fusion_tensor(rank, relations, involution, names):
    lam = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for k in range(rank):
        lam[0][k][k] = 1
        lam[k][0][k] = 1
    for (i, j), row in relations.items():
        lam[i][j] = list(row)
        lam[j][i] = list(row)
    return TableAlgebra(rank, lam, involution, BasisKind.TRANSITIONAL, names=names)


def fusion(name: str) -> TableAlgebra:
    name = name.lower()
    if name == "fib":
        t = _fusion_tensor(2, {(1, 1): (1, 1)}, (0, 1), ("1", "b"))
    elif name == "c2":
        t = _fusion_tensor(2, {(1, 1): (1, 0)}, (0, 1), ("1", "g"))
    elif name == "ising":
        t = _fusion_tensor(
            3, {(1, 1): (1, 0, 0), (1, 2): (0, 0, 1), (2, 2): (1, 1, 0)}, (0, 1, 2), ("1", "b", "d")
        )
    elif name == "reps3":
        t = _fusion_tensor(
            3, {(1, 1): (1, 0, 0), (1, 2): (0, 0, 1), (2, 2): (1, 1, 1)}, (0, 1, 2), ("1", "b", "d")
        )
    elif name == "psu5l2":
        t = _fusion_tensor(
            3, {(1, 1): (1, 0, 1), (1, 2): (0, 1, 1), (2, 2): (1, 1, 1)}, (0, 1, 2), ("1", "b", "d")
        )
    elif name == "e6":
        t = _fusion_tensor(
            3, {(1, 1): (1, 0, 0), (1, 2): (0, 0, 1), (2, 2): (1, 1, 2)}, (0, 1, 2), ("1", "b", "d")
        )
    elif name == "c3":
        t = _fusion_tensor(
            3, {(1, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 2): (0, 1, 0)}, (0, 2, 1), ("1", "g", "g2")
        )
    else:
        raise InputError(f"unknown fusion ring {name!r}; known: {', '.join(FUSION_NAMES)}")
    _must_validate(t, f"fusion({name})")
    return t


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # "drt" | "conference" | "fusion"
    u: int = None
    name: str = None

    def resolve(self) -> TableAlgebra:
        if self.kind == "drt":
            return drt(self.u)
        if self.kind == "conference":
            return conference(self.u)
        if self.kind == "fusion":
            return fusion(self.name)
        raise InputError(f"unknown family kind {self.kind!r}")

    def order(self) -> int:
        return _family_order(self.kind, self.u)
