"""Table algebra input files.

A file is a single UTF-8 JSON object with exactly the fields

    rank        positive integer
    names       list of rank strings
    involution  list of rank integers, a permutation with 0* = 0
    lambda      rank x rank x rank nested list of nonnegative integers,
                indexed [i][j][k]

Unknown fields are rejected.  An optional "basis" field is NOT accepted;
files describe raw tensors and the basis kind is inferred downstream
only where a command needs it.
"""

import json

from .algebra import BasisKind, TableAlgebra
from .errors import InputError

REQUIRED_FIELDS = ("rank", "names", "involution", "lambda")


def parse_algebra(text: str) -> TableAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"not valid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from e
    if not isinstance(doc, dict):
        raise InputError("top level must be a single record (JSON object)")
    unknown = set(doc) - set(REQUIRED_FIELDS)
    if unknown:
        raise InputError(f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = [f for f in REQUIRED_FIELDS if f not in doc]
    if missing:
        raise InputError(f"missing field(s): {', '.join(missing)}")
    rank = doc["rank"]
    if not _is_int(rank) or rank < 1:
        raise InputError("field 'rank' must be a positive integer")
    names = doc["names"]
    if not isinstance(names, list) or len(names) != rank or not all(isinstance(x, str) for x in names):
        raise InputError(f"field 'names' must be a list of {rank} strings")
    inv = doc["involution"]
    if not isinstance(inv, list) or not all(_is_int(x) for x in inv) or sorted(inv) != list(range(rank)):
        raise InputError(f"field 'involution' must be a permutation of 0..{rank - 1}")
    lam = doc["lambda"]
    try:
        ok = len(lam) == rank and all(
            len(plane) == rank and all(len(row) == rank for row in plane) for plane in lam
        )
    except TypeError:
        ok = False
    if not ok:
        raise InputError(f"field 'lambda' must be a {rank}x{rank}x{rank} nested list")
    for i, plane in enumerate(lam):
        for j, row in enumerate(plane):
            for k, x in enumerate(row):
                if not _is_int(x) or x < 0:
                    raise InputError(f"lambda[{i}][{j}][{k}] must be a nonnegative integer, got {x!r}")
    return TableAlgebra(rank, lam, tuple(inv), BasisKind.RAW, names=tuple(names))


def _is_int(x):
    "JSON integers only: a bool is an int to Python but not to the format."
    return isinstance(x, int) and not isinstance(x, bool)


def load_algebra(path: str) -> TableAlgebra:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    return parse_algebra(text)


def dump_algebra(t: TableAlgebra) -> str:
    doc = {
        "rank": t.rank,
        "names": list(t.names) if t.names else [f"b{i}" for i in range(t.rank)],
        "involution": list(t.involution),
        "lambda": [[list(row) for row in plane] for plane in t.lam],
    }
    return json.dumps(doc, indent=1)
