"""The benchmark's workloads: their inputs, operations and output checks.

An operation is one ``tablezeta`` command line, run in process through
``tablezeta.cli.main(argv)``.  Building a workload is its set-up: it
resolves and validates the family algebras it names, or writes and
parses the algebra files it needs.  Each check looks only at the
command's standard output and returns None or the reason it failed;
the expected values come from goldens recorded at the seed commit
(``goldens.json``, written by ``goldens.py``) or from closed forms.
"""

import hashlib
import json
import os
import random
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

FUSION_RINGS = ("fib", "c2", "ising", "reps3", "psu5l2", "e6", "c3")
EULER_BOUND = 6561  # 3^8: every bad prime's oracle is driven past the default depth
EULER_ZETA = (
    ("drt-u1", ("--family", "drt", "--u", "1")),
    ("conference-u1", ("--family", "conference", "--u", "1")),
    ("fusion-c3", ("--family", "fusion", "--name", "c3")),
    ("fusion-ising", ("--family", "fusion", "--name", "ising")),
)
TOWER = ("drt-u6", ("--family", "drt", "--u", "6"), 3, 9)
GENUS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
RANK4_BOUND = 24


# check(stdout, goldens) -> None, or the reason the output is wrong
Op = namedtuple("Op", "label argv check")


def build(name, seed, root):
    "The workload's operations, in the order the seed gives them."
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, Path(root))
    rng.shuffle(ops)
    return ops


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


# --- verify-fusion64 ---------------------------------------------------------


def _verify_fusion(rng, root):
    from tablezeta.families import FamilySpec

    ops = []
    for ring in FUSION_RINGS:
        FamilySpec("fusion", name=ring).resolve()
        key = f"verify:{ring}"
        ops.append(Op(key, ["verify", "--family", "fusion", "--name", ring, "--max-index", "64"], _same_as(key)))
    return ops


def _same_as(key):
    def check(out, goldens):
        return None if out == goldens[key] else f"output differs from the seed golden {key}"

    return check


# --- euler-deep --------------------------------------------------------------


def _euler_deep(rng, root):
    ops = []
    for key, src in EULER_ZETA:
        family_spec(src).resolve()
        ops.append(Op(f"zeta:{key}", ["zeta", *src, "--max-index", str(EULER_BOUND)], _zeta_check(f"zeta:{key}")))
    key, src, p, kmax = TOWER
    family_spec(src).resolve()
    label = f"tower:{key}"
    ops.append(Op(label, ["count", *src, "--prime", str(p), "--kmax", str(kmax)], _same_as(label)))
    return ops


def family_spec(src):
    "The FamilySpec that CLI source options such as ('--family', 'drt', '--u', '1') name."
    from tablezeta.families import FamilySpec

    opts = dict(zip(src[::2], src[1::2]))
    kind = opts["--family"]
    if kind == "fusion":
        return FamilySpec(kind, name=opts["--name"])
    return FamilySpec(kind, u=int(opts["--u"]))


def _zeta_check(key):
    def check(out, goldens):
        gold = goldens[key]
        coeffs = parse_series(out)
        if coeffs is None or len(coeffs) != EULER_BOUND:
            return "output is not a series a_1..a_N"
        if coeffs[:64] != gold["oracle64"]:
            return "a_1..a_64 differ from the oracle"
        if not multiplicative(coeffs):
            return "series is not multiplicative"
        if hashlib.sha256(out.encode()).hexdigest() != gold["sha256"]:
            return "coefficient digest differs from the seed"
        return None

    return check


# --- genus-local -------------------------------------------------------------


def _genus_local(rng, root):
    """`genus` at every odd prime p <= 47 with v_p(n) = 1 and 3, where
    n = p^k w and the seed draws the cofactor w; n mod 4 picks the family
    (drt has order 4u+3, conference 4u+1).  Plus the symbolic-p reports."""
    from tablezeta.families import FamilySpec

    ops = []
    for p in GENUS_PRIMES:
        for k in (1, 3):
            w = rng.choice([w for w in range(1, 100, 2) if w % p])
            n = p**k * w
            kind, u = ("drt", (n - 3) // 4) if n % 4 == 3 else ("conference", (n - 1) // 4)
            FamilySpec(kind, u=u).resolve()
            argv = ["genus", "--family", kind, "--u", str(u), "--prime", str(p)]
            ops.append(Op(f"genus:p{p}:v{k}:w{w}", argv, _genus_check(f"v{k}", p)))
    for m in (0, 1):
        argv = ["genus", "--family", "drt", "--u", "1", "--symbolic-p", "--m", str(m)]
        ops.append(Op(f"genus:symbolic:m{m}", argv, _genus_check(f"v{2 * m + 1}", None)))
    return ops


def _genus_check(family, p):
    "The total must equal the closed form, which does not use the genus code."

    def check(out, goldens):
        from tablezeta.dirichlet import theorem_local_factor

        totals = [line.split("\t")[-1] for line in out.splitlines() if line.startswith("total\t")]
        want = str(theorem_local_factor(family, p))
        return None if totals == [want] else f"total {totals} != closed form {want}"

    return check


# --- rank4-count -------------------------------------------------------------


def _group_record(names, mul, inv):
    r = len(names)
    lam = [[[1 if mul(i, j) == k else 0 for k in range(r)] for j in range(r)] for i in range(r)]
    return {"rank": r, "names": list(names), "involution": list(inv), "lambda": lam}


RANK4_ALGEBRAS = (
    ("c4", _group_record(("1", "g", "g2", "g3"), lambda i, j: (i + j) % 4, (0, 3, 2, 1))),
    ("c2xc2", _group_record(("1", "a", "b", "ab"), lambda i, j: i ^ j, (0, 1, 2, 3))),
)


def _rank4_count(rng, root):
    "Z[C4] and Z[C2 x C2], written as algebra files and parsed back."
    from tablezeta.algebra import validate
    from tablezeta.algfile import load_algebra

    folder = root / ".perfbench" / "inputs"
    os.makedirs(folder, exist_ok=True)
    ops = []
    for key, record in RANK4_ALGEBRAS:
        path = folder / f"{key}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        if not validate(load_algebra(str(path))).ok:
            raise ValueError(f"generated algebra {key} is not a table algebra")
        label = f"rank4:{key}"
        ops.append(Op(label, ["count", str(path), "--max-index", str(RANK4_BOUND)], _rank4_check(label)))
    return ops


def _rank4_check(key):
    def check(out, goldens):
        coeffs = parse_series(out)
        if coeffs != goldens[key]:
            return "counts differ from the seed golden"
        return None if multiplicative(coeffs) else "counts are not multiplicative"

    return check


WORKLOADS = {
    "verify-fusion64": _verify_fusion,
    "euler-deep": _euler_deep,
    "genus-local": _genus_local,
    "rank4-count": _rank4_count,
}


# --- helpers -----------------------------------------------------------------


def parse_series(out):
    "[a_1, ..., a_N] from lines 'n<TAB>a_n' with n = 1..N, or None."
    coeffs = []
    for n, line in enumerate(out.splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 2 or parts[0] != str(n):
            return None
        try:
            coeffs.append(int(parts[1]))
        except ValueError:
            return None
    return coeffs


def multiplicative(coeffs):
    "a_n = prod a_{p^k} over the prime powers p^k exactly dividing n."
    n_max = len(coeffs)
    spf = list(range(n_max + 1))
    for i in range(2, int(n_max**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    for n in range(2, n_max + 1):
        p, q = spf[n], n
        while q % p == 0:
            q //= p
        if q > 1 and coeffs[n - 1] != coeffs[n // q - 1] * coeffs[q - 1]:
            return False
    return True
