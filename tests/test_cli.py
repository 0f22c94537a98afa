import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablezeta.algfile import dump_algebra, parse_algebra
from tablezeta.cli import main
from tablezeta.errors import InputError
from tablezeta.families import fusion
from tablezeta.genus import LocalModel, enumerate_genus_representatives, model_for_order, total_local_zeta

GOOD_FILE = """
{"rank": 2,
 "names": ["1", "g"],
 "involution": [0, 1],
 "lambda": [[[1,0],[0,1]],[[0,1],[1,0]]]}
"""


def test_parse_roundtrip():
    t = parse_algebra(GOOD_FILE)
    assert t.rank == 2 and t.lam == fusion("c2").lam
    again = parse_algebra(dump_algebra(t))
    assert again.lam == t.lam and again.involution == t.involution


def test_parse_rejects_unknown_field():
    doc = json.loads(GOOD_FILE)
    doc["comment"] = "hi"
    with pytest.raises(InputError, match="unknown field"):
        parse_algebra(json.dumps(doc))


def test_parse_rejects_bad_involution():
    doc = json.loads(GOOD_FILE)
    doc["involution"] = [1, 1]
    with pytest.raises(InputError, match="permutation"):
        parse_algebra(json.dumps(doc))


def test_parse_rejects_negative_entry():
    doc = json.loads(GOOD_FILE)
    doc["lambda"][1][1][0] = -1
    with pytest.raises(InputError, match="nonnegative"):
        parse_algebra(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value",
    [
        ("involution", [0, "x"]),
        ("involution", [0, None]),
        ("involution", [0, 1.0]),
        ("involution", [False, True]),
        ("rank", 2.0),
        ("lambda", [[[True, False], [False, True]], [[0, 1], [1, 0]]]),
        ("lambda", [[[1.0, 0], [0, 1]], [[0, 1], [1, 0]]]),
    ],
)
def test_parse_rejects_badly_typed_fields(field, value):
    doc = json.loads(GOOD_FILE)
    doc[field] = value
    with pytest.raises(InputError):
        parse_algebra(json.dumps(doc))


SCALARS = st.none() | st.booleans() | st.integers(-1, 2) | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=1)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=1), inner, max_size=2), max_leaves=4
)


def _records(n):
    "Rank-n records whose fields are each well formed or an arbitrary JSON value."
    entry = st.sampled_from(range(n)) | SCALARS
    return st.fixed_dictionaries(
        {
            "rank": st.just(n) | SCALARS,
            "names": st.just([f"b{i}" for i in range(n)]) | JSON_VALUES,
            "involution": st.lists(entry, min_size=n, max_size=n) | JSON_VALUES,
            "lambda": st.lists(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), min_size=n, max_size=n),
        }
    )


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | st.integers(1, 2).flatmap(_records))
def test_parse_returns_or_raises_input_error(doc):
    try:
        parse_algebra(json.dumps(doc))
    except InputError:
        return
    # accepted: every number in the file was a JSON integer (not a float or a bool)
    assert type(doc["rank"]) is int
    assert all(type(x) is int for x in doc["involution"])
    assert all(type(x) is int for plane in doc["lambda"] for row in plane for x in row)


def test_parse_rejects_boolean_rank():
    with pytest.raises(InputError):
        parse_algebra('{"rank": true, "names": ["1"], "involution": [0], "lambda": [[[1]]]}')


def test_cli_validate_rejects_badly_typed_file(tmp_path, capsys):
    doc = json.loads(GOOD_FILE)
    doc["involution"] = [0, "x"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_parse_diagnostics_for_broken_json():
    with pytest.raises(InputError, match="line"):
        parse_algebra("{\n  'rank': 2,\n}")


def test_cli_validate_family(capsys):
    assert main(["validate", "--family", "drt", "--u", "1"]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_conference(capsys):
    assert main(["validate", "--family", "conference", "--u", "1"]) == 0


def test_cli_validate_file(tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text(GOOD_FILE)
    assert main(["validate", str(path)]) == 0


def test_cli_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_cli_decompose_drt(capsys):
    assert main(["decompose", "--family", "drt", "--u", "1"]) == 0
    out = capsys.readouterr().out
    assert "bad_primes\t7" in out
    assert "index\t7" in out


def test_cli_decompose_json_format(capsys):
    assert main(["--format", "json-like", "decompose", "--family", "fusion", "--name", "reps3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bad_primes"] == [2, 3]
    assert doc["index"] == 6


def test_cli_decompose_fib_no_bad_primes(capsys):
    assert main(["decompose", "--family", "fusion", "--name", "fib"]) == 0
    out = capsys.readouterr().out
    assert "bad_primes\t-" in out
    assert "index\t1" in out


def test_cli_count_prime_mode(capsys):
    assert main(["count", "--family", "drt", "--u", "1", "--prime", "7", "--kmax", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["7^0\t1", "7^1\t1", "7^2\t8", "7^3\t15"]


def test_cli_count_max_index(capsys):
    assert main(["count", "--family", "fusion", "--name", "c2", "--max-index", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1\t1", "2\t1", "3\t2", "4\t3"]


def test_cli_zeta(capsys):
    assert main(["zeta", "--family", "fusion", "--name", "fib", "--max-index", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1\t1"
    assert lines[4] == "5\t1"  # ramified
    assert lines[8] == "9\t1"  # 3 inert: a_9 = 1


def test_cli_verify_pass(capsys):
    assert main(["verify", "--family", "fusion", "--name", "ising", "--max-index", "32"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "delta_2\t1 - t + 2*t^2" in out


def test_cli_genus_m0(capsys):
    assert main(["genus", "--family", "drt", "--u", "1", "--prime", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("M(") == 2
    assert "(1 - t + 7*t^2) / (1 - 2*t + t^2)" in out


def test_cli_genus_m1_symbolic(capsys):
    assert main(["genus", "--family", "drt", "--u", "6", "--symbolic-p", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("M(") == 8
    assert "p^4*t^8" in out


@pytest.mark.parametrize(
    "argv,model",
    [
        (["--u", "1", "--prime", "7"], model_for_order(7, 7)),
        (["--u", "6", "--prime", "3"], model_for_order(27, 3)),
        (["--u", "6", "--symbolic-p", "--m", "0"], LocalModel(p=None, m=0)),
        (["--u", "6", "--symbolic-p", "--m", "1"], LocalModel(p=None, m=1)),
    ],
)
def test_cli_genus_total_matches_total_local_zeta(argv, model, capsys):
    assert main(["genus", "--family", "drt"] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split("\t")[0] for line in lines if line.startswith("M(")]
    assert rows == [f"M{rep.params}".replace(" ", "") for rep in enumerate_genus_representatives(model)]
    assert lines[-1] == f"total\t\t\t{total_local_zeta(model)}"
    assert len(lines) == len(rows) + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--family", "drt", "--u", "6", "--prime", "3", "--m", "5"],
        ["genus", "--family", "drt", "--u", "6", "--prime", "3", "--m", "1"],
        ["genus", "--family", "drt", "--u", "6", "--symbolic-p", "--prime", "3"],
        ["genus", "--family", "drt", "--u", "6", "--symbolic-p", "--m", "1", "--prime", "5"],
    ],
)
def test_cli_genus_rejects_ignored_flags(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err


def test_cli_genus_unsupported_m(capsys):
    # v_p(n) = 5 at p = 3 needs m = 2: declared unsupported, exit 3
    assert main(["genus", "--family", "drt", "--u", "60", "--prime", "3"]) == 3


def test_cli_genus_even_valuation(capsys):
    # u = 24: n = 99 = 9 * 11, v_3(n) = 2 is even
    assert main(["genus", "--family", "drt", "--u", "24", "--prime", "3"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "drt", "--u", "1", "--prime", "4"],
        ["count", "--family", "drt", "--u", "1", "--prime", "1"],
        ["count", "--family", "drt", "--u", "1", "--prime", "0"],
        ["genus", "--family", "drt", "--u", "6", "--prime", "9"],
        ["genus", "--family", "drt", "--u", "6", "--prime", "1"],
    ],
)
def test_cli_rejects_non_prime(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prime" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--family", "drt", "--u", "1", "--max-index", "0"],
        ["zeta", "--family", "drt", "--u", "1", "--max-index", "-3"],
        ["verify", "--family", "drt", "--u", "1", "--max-index", "0"],
        ["verify", "--family", "drt", "--u", "1", "--max-index", "-3"],
        ["count", "--family", "drt", "--u", "1", "--prime", "3", "--kmax", "-1"],
    ],
)
def test_cli_rejects_out_of_range_size(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err
    assert "counting" not in captured.err


def test_cli_missing_source(capsys):
    assert main(["count"]) == 2
