import json
from fractions import Fraction

import pytest

from tablezeta.algebra import TableAlgebra
from tablezeta.cli import main
from tablezeta.decomposition import find_generator, maximal_order
from tablezeta.dirichlet import LocalRationalFunction, infer_local_polynomial
from tablezeta.errors import (
    DepthExceeded,
    InputError,
    MaximalityUncertified,
    NonCommutative,
    NonIntegralQuotient,
    NotFullRank,
    NotMonogenic,
    PrecisionUnstable,
)
from tablezeta.exact import hnf_square
from tablezeta.genus import (
    LatticeHNF,
    LocalModel,
    _membership_congruence_matrix,
    decompose_domain,
    triple_matrix,
)
from tablezeta.ideals import IdealCountSeries, count_ideals

from references import (
    BasisKindMismatch,
    block_triangularize,
    character_table,
    degree_map,
    group_table,
    is_ideal,
    quotient_ring_table,
    rescale,
)


def test_not_monogenic():
    # Z[e]/(e^2), b1^2 = 0: every element a + b e has the characteristic
    # polynomial (x - a)^2, so no element at all generates the algebra over Q
    with pytest.raises(NotMonogenic):
        find_generator(TableAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], (0, 1)))


NON_COMMUTATIVE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 1, 0]],
    [[0, 0, 1], [0, 0, 1], [1, 0, 0]],
]


def test_non_commutative_rejected():
    t = TableAlgebra(3, NON_COMMUTATIVE, (0, 1, 2))
    with pytest.raises(NonCommutative):
        degree_map(t)


def non_associative_table():
    # Z[C2 x C2] with b1 b1 = b2 in place of b0: still commutative with
    # identity b0, but (b1 b1) b2 = b0 while b1 (b1 b2) = b1 b3 = b2
    lam = [[list(row) for row in plane] for plane in group_table(4, lambda i, j: i ^ j)]
    lam[1][1] = [0, 0, 1, 0]
    return lam


def _table_file(tmp_path, lam):
    rank = len(lam)
    path = tmp_path / "table.json"
    doc = {"rank": rank, "names": [f"b{i}" for i in range(rank)], "involution": list(range(rank)), "lambda": lam}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("mode", [["--max-index", "8"], ["--prime", "2", "--kmax", "3"]])
def test_count_refuses_non_commutative_table(tmp_path, capsys, mode):
    assert main(["count", _table_file(tmp_path, NON_COMMUTATIVE), *mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "not commutative" in captured.err


@pytest.mark.parametrize("mode", [["--max-index", "8"], ["--prime", "2", "--kmax", "3"]])
def test_count_refuses_non_associative_table(tmp_path, capsys, mode):
    assert main(["count", _table_file(tmp_path, non_associative_table()), *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not associative" in captured.err


# commutative with identity b0, b1^2 = b1 b2 = 0 and b2^2 = 1 + b1 + b2, so
# (b1 b2) b2 = 0 but b1 (b2 b2) = b1; it has no bad prime
NON_ASSOCIATIVE_RANK3 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 1, 1]],
]


@pytest.mark.parametrize("command", ["decompose", "zeta", "verify", "count"])
def test_every_command_refuses_a_non_associative_table(tmp_path, capsys, command):
    args = [] if command == "decompose" else ["--max-index", "12"]
    assert main([command, _table_file(tmp_path, NON_ASSOCIATIVE_RANK3), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not associative" in captured.err


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_analysis_refuses_the_non_associative_group_ring_variant(tmp_path, capsys, command):
    assert main([command, _table_file(tmp_path, non_associative_table())]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not associative" in captured.err


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_analysis_refuses_a_non_commutative_table(tmp_path, capsys, command):
    assert main([command, _table_file(tmp_path, NON_COMMUTATIVE)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "not commutative" in captured.err


def test_maximal_order_and_degree_map_refuse_a_non_associative_table():
    t = TableAlgebra(3, NON_ASSOCIATIVE_RANK3, (0, 1, 2))
    with pytest.raises(InputError, match="not associative"):
        maximal_order(t)
    with pytest.raises(InputError, match="not associative"):
        degree_map(t)


@pytest.mark.parametrize(
    "lam, error",
    [([[[1.5]]], InputError), (NON_ASSOCIATIVE_RANK3, InputError), (NON_COMMUTATIVE, NonCommutative)],
    ids=["float", "non-associative", "non-commutative"],
)
def test_is_ideal_refuses_a_table_that_is_not_a_ring(lam, error):
    rank = len(lam)
    whole = LatticeHNF(rank, tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)))
    with pytest.raises(error):
        is_ideal(lam, whole)


@pytest.mark.parametrize("target", ["standard", "transitional"])
def test_rescale_refuses_a_non_associative_table(target):
    # commutative with identity b0, but (b1 b1) b2 = (b0 + b1) b2 = 2 b2 while b1 (b1 b2) = b1 b2 = b2
    lam = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 0, 0]],
    ]
    with pytest.raises(InputError, match="the table is not associative"):
        rescale(TableAlgebra(3, lam, (0, 1, 2)), target)


def test_count_ideals_refuses_a_float_entry():
    lam = [[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]]
    with pytest.raises(InputError):
        count_ideals(lam, 8)


def test_constructors_refuse_non_integer_entries():
    # int() would truncate each of these instead of refusing it
    with pytest.raises(InputError):
        TableAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [1.5, 0]]], (0, 1))
    with pytest.raises(InputError):
        IdealCountSeries(2, (1, Fraction(3, 2)))
    with pytest.raises(InputError):
        IdealCountSeries(2, (1, 2.5))
    with pytest.raises(InputError):
        LatticeHNF(2, ((1, 0), (0, 1.5)))


def test_uncertified_cubic_refused():
    # Z[x]/(x^3 - 2) is a perfectly good order, but its cubic carries no
    # maximality certificate, so the decomposition refuses to assemble
    lam = quotient_ring_table((-2, 0, 0, 1))
    t = TableAlgebra(3, lam, (0, 2, 1))
    with pytest.raises(MaximalityUncertified):
        maximal_order(t)


def test_character_formula_needs_basis_kind():
    from tablezeta.families import fusion

    raw = TableAlgebra(3, fusion("ising").lam, (0, 1, 2))  # basis_kind defaults to RAW
    with pytest.raises(BasisKindMismatch):
        character_table(raw)


def test_hnf_square_rejects_rank_deficient_rows():
    # the second row is twice the first: rank 2 in dimension 3
    with pytest.raises(NotFullRank):
        hnf_square(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


def test_block_triangularize_rejects_denominator_divisible_by_p():
    model = LocalModel(p=3, m=0, v=1)
    with pytest.raises(NotFullRank):
        block_triangularize(model, ((Fraction(1, 3), 0, 0), (0, 1, 0), (0, 0, 1)))


def test_membership_congruence_needs_enough_precision():
    # M(0,0,1) has a 1/p in its inverse, so precision p^0 cannot express it
    model = LocalModel(p=3, m=0, v=1)
    with pytest.raises(PrecisionUnstable):
        _membership_congruence_matrix(triple_matrix(model, (0, 0, 1)), 0, 3)


def test_decompose_domain_depth_guard_ends_a_digit_tree_that_does_not_end():
    # p^2 pi e1 Z_p + e1 Z_p + e0 Z_p at p = 3, m = 0, a lattice genus_zeta
    # never passes: its digit tree does not end (a bound ten times larger
    # raises too), and the guard raises.  With p in place of p^2 it ends.
    model = LocalModel(p=3, m=0, v=1)
    with pytest.raises(DepthExceeded):
        decompose_domain(model, LatticeHNF(3, ((9, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert len(decompose_domain(model, LatticeHNF(3, ((3, 0, 0), (0, 1, 0), (0, 0, 1))))) == 2


@pytest.mark.parametrize(
    "rows, message",
    [
        # a unit e1 digit of row 1 leads the quadratic component and also
        # sits at the rational frontier, which row 0 reaches too
        (((1, 0, 1), (0, 1, 1), (0, 0, 3)), "joint digit collision at the rational frontier"),
        # with the leading digits of rows 1 and 0 fixed to zero, both rows
        # reach rational layer 1
        (((1, 0, 1), (0, 1, 1), (0, 0, 9)), "digit collision at Z layer 1"),
        # a unit e1 digit of row 1 leaves a rational offset pending at
        # layer 1; with row 0's e0 digit fixed to zero, row 0 reaches it too
        (((1, 0, 1), (0, 1, 3), (0, 0, 9)), "pending offset collides with a frontier digit"),
        # rows 0 and 1 both have their rational digit at layer 0, the frontier
        (((1, 0, 1), (0, 3, 1), (0, 0, 3)), "digit collision at Z layer 0"),
    ],
)
def test_decompose_domain_refuses_a_digit_collision(rows, message):
    # lattices genus_zeta never passes, whose digit tree would have to fix
    # two digits of one layer at once
    with pytest.raises(PrecisionUnstable, match=f"^{message}$"):
        decompose_domain(LocalModel(p=3, m=0, v=-1), LatticeHNF(3, rows))


def test_membership_congruence_rejects_a_singular_target():
    with pytest.raises(ZeroDivisionError):
        _membership_congruence_matrix(((1, 2, 3), (2, 4, 6), (0, 0, 1)), 2, 3)


def test_infer_local_polynomial_rejects_series_not_starting_at_one():
    # 2 / (1 - t) expands to 2 + 2t + ..., which no ideal count can divide
    with pytest.raises(NonIntegralQuotient):
        infer_local_polynomial([1] * 6, LocalRationalFunction(2, (2,), (1, -1)), 5)
