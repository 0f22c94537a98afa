"""Command line front end.

Commands: validate, decompose, count, zeta, verify, genus.  Results go to
stdout, progress chatter to stderr.  Exit codes: 0 success / verification
PASS, 1 verification FAIL, 2 input error, 3 declared-unsupported case,
4 internal error (an internal consistency check failed: a bug, not a
property of the input).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra import TableAlgebra
from .algfile import load_algebra
from .errors import InputError, TableZetaError, UnsupportedCaseError
from .families import FUSION_NAMES, FamilySpec


def _source(args) -> TableAlgebra:
    "The algebra a file or a family names; an option the source would ignore is an error."
    if args.file:
        if args.family or args.u is not None or args.name:
            raise InputError("a file takes no --family, --u or --name")
        return load_algebra(args.file)
    if args.family == "fusion":
        if args.u is not None:
            raise InputError("--family fusion takes no --u")
        if not args.name:
            raise InputError("--family fusion needs --name")
        return FamilySpec("fusion", name=args.name).resolve()
    if args.family in ("drt", "conference"):
        if args.name:
            raise InputError(f"--family {args.family} takes no --name")
        if args.u is None:
            raise InputError(f"--family {args.family} needs --u")
        return FamilySpec(args.family, u=args.u).resolve()
    raise InputError("give either a file or --family drt|conference|fusion")


def _add_source_args(sp):
    sp.add_argument("file", nargs="?", help="table algebra file (JSON record)")
    sp.add_argument("--family", choices=["drt", "conference", "fusion"])
    sp.add_argument("--u", type=int, help="family parameter u")
    sp.add_argument("--name", choices=list(FUSION_NAMES), help="fusion ring name")


# Each command imports the modules it runs when it is called, so that
# parsing the arguments and loading the algebra compile nothing else.


def cmd_validate(args):
    from .algebra import validate

    t = _source(args)
    report = validate(t)
    if args.format == "json-like":
        print(json.dumps({"valid": report.ok, "violations": [list(v) for v in report.violations]}))
    else:
        print(report)
    return 0 if report.ok else 2


def cmd_decompose(args):
    from .decomposition import maximal_order

    t = _source(args)
    order = maximal_order(t)
    theta = order.generator  # reported as b_i if it is a basis element, else by its coefficients
    index = theta.index(1) if set(theta) <= {0, 1} and sum(theta) == 1 else None
    if args.format == "json-like":
        print(
            json.dumps(
                {
                    **({"generator": list(theta)} if index is None else {"generator_index": index}),
                    "minpoly": list(order.minpoly),
                    "factors": [list(f) for f in order.factors],
                    "idempotents": [[str(x) for x in e] for e in order.idempotents],
                    "maximal_order_basis": [[str(Fraction(x)) for x in row] for row in order.basis],
                    "index": order.index,
                    "conductor": order.conductor,
                    "bad_primes": order.bad_primes,
                    "component_rings": [list(r) for r in order.rings],
                }
            )
        )
        return 0
    print(f"generator\t{_vec(theta) if index is None else f'b{index}'}")
    print(f"minpoly\t{list(order.minpoly)}")
    for f, ring, e in zip(order.factors, order.rings, order.idempotents):
        print(f"factor\t{list(f)}\tring\t{list(ring)}\tidempotent\t{_vec(e)}")
    for row in order.basis:
        print(f"lambda0\t{_vec(row)}")
    print(f"index\t{order.index}")
    print(f"conductor\t{order.conductor}")
    print(f"bad_primes\t{' '.join(str(p) for p in order.bad_primes) if order.bad_primes else '-'}")
    return 0


def _vec(v):
    return "(" + ", ".join(str(Fraction(x)) for x in v) + ")"


def cmd_count(args):
    from .ideals import count_ideals, count_ideals_at_prime

    t = _source(args)
    if args.prime is not None:
        if args.max_index is not None:
            raise InputError("--prime takes --kmax, not --max-index")
        kmax = 3 if args.kmax is None else args.kmax
        counts = count_ideals_at_prime(t.lam, args.prime, kmax)
        for k, a in enumerate(counts):
            print(f"{args.prime}^{k}\t{a}")
    else:
        if args.kmax is not None:
            raise InputError("--kmax needs --prime")
        bound = 20 if args.max_index is None else args.max_index
        print(count_ideals(t.lam, bound))
    return 0


def cmd_zeta(args):
    from .pipeline import zeta_series

    t = _source(args)
    series = zeta_series(t, args.max_index, progress=sys.stderr)
    print(series)
    return 0


def cmd_verify(args):
    from .dirichlet import _poly_str
    from .pipeline import verify_order

    t = _source(args)
    res = verify_order(t, args.max_index, progress=sys.stderr)
    for p in sorted(res.deltas):
        print(f"delta_{p}\t{_poly_str(res.deltas[p])}")
    for n, got, want in res.mismatches[:20]:
        print(f"mismatch\tn={n}\toracle={got}\tassembled={want}")
    print("PASS" if res.passed else "FAIL")
    return 0 if res.passed else 1


def cmd_genus(args):
    from .genus import (
        LocalModel,
        automorphism_measure_inverse,
        enumerate_genus_representatives,
        genus_zeta,
        model_for_order,
        sum_genus_zetas,
    )

    n = FamilySpec(args.family, u=args.u).order()
    if args.symbolic_p:
        if args.prime is not None:
            raise InputError("--symbolic-p takes no --prime")
        model = LocalModel(p=None, m=args.m if args.m is not None else 1, v=None)
    else:
        if args.m is not None:
            raise InputError("--m needs --symbolic-p; with --prime, m comes from v_p(n)")
        if args.prime is None:
            raise InputError("genus needs --prime (or --symbolic-p with --m)")
        model = model_for_order(n, args.prime)
    zetas = []
    for rep in enumerate_genus_representatives(model):
        mu = automorphism_measure_inverse(model, rep)
        z = genus_zeta(model, rep, muinv=mu)
        zetas.append(z)
        r, i, j = rep
        idx = f"p^{3 * model.m + 1 - i - j}"
        print(f"M({r},{i},{j})\t{idx}\t{mu}\t{z}")
    print(f"total\t\t\t{sum_genus_zetas(zetas)}")
    return 0


@functools.cache
def _parser():
    "The argument parser, built on the first call to main and kept."
    ap = argparse.ArgumentParser(prog="tablezeta", description=__doc__)
    ap.add_argument("--format", choices=["tsv", "json-like"], default="tsv")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the table algebra axioms")
    _add_source_args(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("decompose", help="rational decomposition and maximal order")
    _add_source_args(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("count", help="brute-force ideal counts")
    _add_source_args(sp)
    sp.add_argument("--max-index", type=int, help="count a_1 .. a_N (default 20)")
    sp.add_argument("--prime", type=int)
    sp.add_argument("--kmax", type=int, help="with --prime, count a_1, a_p .. a_(p^kmax) (default 3)")
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("zeta", help="assembled Euler-product series")
    _add_source_args(sp)
    sp.add_argument("--max-index", type=int, default=30)
    sp.set_defaults(fn=cmd_zeta)

    sp = sub.add_parser("verify", help="oracle vs Euler product, exact comparison")
    _add_source_args(sp)
    sp.add_argument("--max-index", type=int, default=64)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("genus", help="local genus zeta report for the rank-3 families")
    sp.add_argument("--family", choices=["drt", "conference"], required=True)
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--symbolic-p", action="store_true")
    sp.add_argument("--m", type=int, help="valuation parameter for --symbolic-p")
    sp.set_defaults(fn=cmd_genus)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.format == "json-like" and args.command not in ("validate", "decompose"):
            raise InputError(f"{args.command} has no json-like format; only validate and decompose do")
        return args.fn(args)
    except UnsupportedCaseError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except TableZetaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
