import json
from fractions import Fraction

import pytest

from tablezeta.algebra import TableAlgebra, degree_map
from tablezeta.cli import main
from tablezeta.decomposition import character_table, find_generator, maximal_order
from tablezeta.dirichlet import LocalRationalFunction, infer_local_polynomial
from tablezeta.errors import (
    BasisKindMismatch,
    MaximalityUncertified,
    NonCommutative,
    NonIntegralQuotient,
    NotFullRank,
    NotMonogenic,
    PrecisionUnstable,
)
from tablezeta.exact import hnf_square
from tablezeta.genus import LocalModel, _membership_congruence_matrix, block_triangularize, triple_matrix
from tablezeta.ideals import quotient_ring_table


def klein_four_table():
    # Z[C2 x C2]: every non-identity element has a quadratic minimal
    # polynomial, so no single basis element generates the rank-4 algebra
    order = {0: {0: 0, 1: 1, 2: 2, 3: 3}, 1: {1: 0, 2: 3, 3: 2}, 2: {2: 0, 3: 1}, 3: {3: 0}}
    lam = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            k = order[min(i, j)].get(max(i, j))
            lam[i][j][k] = 1
    return TableAlgebra(4, lam, (0, 1, 2, 3))


def test_not_monogenic():
    with pytest.raises(NotMonogenic):
        find_generator(klein_four_table())


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
    lam = [[list(row) for row in plane] for plane in klein_four_table().lam]
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


def test_membership_congruence_rejects_a_singular_target():
    with pytest.raises(ZeroDivisionError):
        _membership_congruence_matrix(((1, 2, 3), (2, 4, 6), (0, 0, 1)), 2, 3)


def test_infer_local_polynomial_rejects_series_not_starting_at_one():
    # 2 / (1 - t) expands to 2 + 2t + ..., which no ideal count can divide
    with pytest.raises(NonIntegralQuotient):
        infer_local_polynomial([1] * 6, LocalRationalFunction(2, (2,), (1, -1)))
