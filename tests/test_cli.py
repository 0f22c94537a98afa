import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tablezeta
from tablezeta.algfile import dump_algebra, parse_algebra
from tablezeta.cli import main
from tablezeta.errors import InputError
from tablezeta.families import fusion
from tablezeta.genus import LocalModel, enumerate_genus_representatives, model_for_order, total_local_zeta

from references import group_table

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


def test_cli_decompose_generator_that_is_no_basis_element(tmp_path, capsys):
    # Z[C2 x C2]: no basis element generates it, so the generator is
    # b1 + 2 b2 + 3 b3, reported by its coefficients in both formats
    path = tmp_path / "c2c2.json"
    doc = {"rank": 4, "names": ["1", "a", "b", "ab"], "involution": [0, 1, 2, 3]}
    path.write_text(json.dumps({**doc, "lambda": group_table(4, lambda i, j: i ^ j)}))
    assert main(["decompose", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "generator\t(0, 1, 2, 3)",
        "minpoly\t[0, -48, -28, 0, 1]",
        "factor\t[-6, 1]\tring\t[-6, 1]\tidempotent\t(1/4, 1/4, 1/4, 1/4)",
        "factor\t[0, 1]\tring\t[0, 1]\tidempotent\t(1/4, -1/4, -1/4, 1/4)",
        "factor\t[2, 1]\tring\t[2, 1]\tidempotent\t(1/4, -1/4, 1/4, -1/4)",
        "factor\t[4, 1]\tring\t[4, 1]\tidempotent\t(1/4, 1/4, -1/4, -1/4)",
        "lambda0\t(1/4, 1/4, 1/4, 1/4)",
        "lambda0\t(1/4, -1/4, -1/4, 1/4)",
        "lambda0\t(1/4, -1/4, 1/4, -1/4)",
        "lambda0\t(1/4, 1/4, -1/4, -1/4)",
        "index\t16",
        "conductor\t4",
        "bad_primes\t2",
    ]
    assert main(["--format", "json-like", "decompose", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out)[:2] == ["generator", "minpoly"]
    assert out["generator"] == [0, 1, 2, 3]
    assert (out["index"], out["conductor"], out["bad_primes"]) == (16, 4, [2])


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
    captured = capsys.readouterr()
    assert captured.out == "delta_2\t1 - t + 2*t^2\nPASS\n"
    # the progress line names l, the proven degree bound, the Gorenstein
    # verdict, the depth counted and where each coefficient comes from; the
    # tower it counts is the one the full count then takes at 2
    assert captured.err == (
        "bad prime 2 of {1, b, d}: l = 1, D_2 = 5, Gorenstein; delta_2 fitted to t^1 and fixed by the functional "
        "equation to t^2; a_{2^k} predicted for k > 5; counting a_{2^k} for k <= 5 at p=2 alone ...\n"
        "counting all ideals of {1, b, d} up to index 32 ...\n"
    )


def test_cli_verify_stops_when_a_count_breaks_the_functional_equation(monkeypatch, capsys):
    # with l taken one too small (3 for drt(6) at p = 3, where it is 4), the
    # count to 3^4 disagrees with the delta_3 completed from degree 3
    import tablezeta.pipeline as pipeline
    from tablezeta.exact import valuation

    monkeypatch.setattr(pipeline, "valuation", lambda n, p: valuation(n, p) - 1)
    assert main(["verify", "--family", "drt", "--u", "6", "--max-index", "81"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "by the functional equation from degree 3" in captured.err


def test_python_m_tablezeta_runs_the_cli(capsys):
    argv = ["validate", "--family", "fusion", "--name", "c2"]
    src = str(pathlib.Path(tablezeta.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tablezeta", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == main(argv) == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


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
    assert rows == [f"M{rep}".replace(" ", "") for rep in enumerate_genus_representatives(model)]
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


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "drt", "--u", "1", "--kmax", "2"],
        ["count", "--family", "drt", "--u", "1", "--prime", "7", "--max-index", "8"],
        ["count", "--family", "fusion", "--name", "c2", "--u", "1"],
        ["zeta", "--family", "fusion", "--name", "c2", "--u", "1"],
        ["verify", "--family", "drt", "--u", "1", "--name", "c2"],
        ["validate", "--family", "conference", "--u", "1", "--name", "fib"],
        ["count", "FILE", "--family", "drt"],
        ["count", "FILE", "--u", "1"],
        ["decompose", "FILE", "--name", "c2"],
    ],
)
def test_cli_rejects_ignored_source_and_count_flags(argv, tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text(GOOD_FILE)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err


def test_cli_count_defaults(capsys):
    # without --max-index the series runs to 20; without --kmax the tower to p^3
    assert main(["count", "--family", "fusion", "--name", "c2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    assert main(["count", "--family", "fusion", "--name", "c2", "--prime", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("3^3\t")


@pytest.mark.parametrize(
    "family,u,genus_args",
    [
        ("drt", "-2", ["--prime", "5"]),  # n = -5
        ("drt", "-1", ["--prime", "3"]),  # n = -1
        ("conference", "2", ["--prime", "3"]),  # n = 9, a perfect square
        ("drt", "-2", ["--symbolic-p", "--m", "1"]),
    ],
)
def test_cli_genus_refuses_the_family_parameters_zeta_refuses(family, u, genus_args, capsys):
    assert main(["zeta", "--family", family, "--u", u]) == 2
    want = capsys.readouterr().err
    assert main(["genus", "--family", family, "--u", u, *genus_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == want


def test_cli_genus_takes_prime_zero_as_given(capsys):
    # --prime 0 is a prime that is refused, not a missing --prime
    assert main(["genus", "--family", "drt", "--u", "6", "--prime", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p = 0 must be an odd prime" in captured.err


def test_cli_genus_unsupported_m(capsys):
    # v_p(n) = 5 at p = 3 needs m = 2: declared unsupported, exit 3
    assert main(["genus", "--family", "drt", "--u", "60", "--prime", "3"]) == 3


def test_cli_genus_even_valuation(capsys):
    # u = 24: n = 99 = 9 * 11, v_3(n) = 2 is even
    assert main(["genus", "--family", "drt", "--u", "24", "--prime", "3"]) == 3


def test_cli_internal_error_exit_4(monkeypatch, capsys):
    # a descent that loses a child fails its Moebius check with ArithmeticError:
    # exit 4, not the traceback and exit 1 of a verification FAIL
    from tablezeta import ideals

    degree_one = ideals._degree_one_children
    monkeypatch.setattr(ideals, "_degree_one_children", lambda rows, w, p: list(degree_one(rows, w, p))[:-1])
    assert main(["count", "--family", "drt", "--u", "6", "--prime", "3", "--kmax", "6"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "drt", "--u", "1", "--max-index", "8"],
        ["zeta", "--family", "drt", "--u", "1", "--max-index", "8"],
        ["verify", "--family", "drt", "--u", "1", "--max-index", "8"],
        ["genus", "--family", "drt", "--u", "1", "--prime", "7"],
    ],
)
def test_cli_rejects_json_format_without_one(argv, capsys):
    # only validate and decompose have a json-like report
    assert main(["--format", "json-like", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "json-like" in captured.err


def test_cli_missing_source(capsys):
    assert main(["count"]) == 2
