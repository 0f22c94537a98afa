import pytest

from tablezeta import families
from tablezeta.algebra import BasisKind, validate
from tablezeta.errors import InputError
from tablezeta.families import FamilySpec, FUSION_NAMES, conference, drt, fusion


@pytest.mark.parametrize("u", [0, 1, 2, 5, 6])
def test_drt_valid(u):
    t = drt(u)
    assert validate(t).ok
    assert t.basis_kind is BasisKind.STANDARD
    assert t.lam[1][2][0] == 2 * u + 1


def test_drt_relations_u1():
    t = drt(1)
    assert t.lam[1][1] == (0, 1, 2)  # b^2 = b + 2b*
    assert t.lam[1][2] == (3, 1, 1)  # bb* = 3 + b + b*


@pytest.mark.parametrize("u", [1, 3, 4, 5])
def test_conference_valid(u):
    t = conference(u)
    assert validate(t).ok
    assert t.lam[2][2] == (2 * u, u, u - 1)  # completed by associativity


def test_conference_square_rejected():
    with pytest.raises(InputError):
        conference(2)  # n = 9
    with pytest.raises(InputError):
        conference(6)  # n = 25


def test_drt0_is_c3():
    # u = 0: bb* = 1, b^2 = b*, the cyclic group of order 3
    t = drt(0)
    c3 = fusion("c3")
    assert t.lam == c3.lam


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_fusion_rings_valid(name):
    t = fusion(name)
    assert validate(t).ok
    assert t.basis_kind is BasisKind.TRANSITIONAL
    # fusion ring condition: lambda[i][i*][0] = 1
    for i in range(t.rank):
        assert t.lam[i][t.involution[i]][0] == 1


def test_fusion_unknown_name():
    with pytest.raises(InputError):
        fusion("golden")


@pytest.mark.parametrize("kind,u", [("drt", -1), ("conference", 0), ("conference", 2), ("conference", 6)])
def test_family_spec_order_applies_the_parameter_rules(kind, u):
    with pytest.raises(InputError) as order_error:
        FamilySpec(kind, u=u).order()
    with pytest.raises(InputError) as resolve_error:
        FamilySpec(kind, u=u).resolve()
    assert str(order_error.value) == str(resolve_error.value)


def test_family_spec_order_builds_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("order() built a table")

    monkeypatch.setattr(families, "TableAlgebra", refuse)
    monkeypatch.setattr(families, "validate", refuse)
    assert FamilySpec("drt", u=0).order() == 3
    assert FamilySpec("conference", u=10**6).order() == 4 * 10**6 + 1


def test_family_spec_resolution():
    assert FamilySpec("drt", u=1).resolve().lam == drt(1).lam
    assert FamilySpec("conference", u=3).order() == 13
    assert FamilySpec("fusion", name="ising").resolve().names == ("1", "b", "d")
