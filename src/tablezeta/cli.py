"""Command line front end.

Commands: validate, decompose, count, zeta, verify, genus.  Results go to
stdout, progress chatter to stderr.  Exit codes: 0 success / verification
PASS, 1 verification FAIL, 2 input error, 3 declared-unsupported case.
"""

import argparse
import json
import sys
from fractions import Fraction

from .algebra import TableAlgebra, validate
from .algfile import load_algebra
from .dirichlet import _poly_str
from .errors import InputError, TableZetaError, UnsupportedCaseError
from .families import FUSION_NAMES, FamilySpec
from .genus import (
    LocalModel,
    enumerate_genus_representatives,
    genus_zeta,
    model_for_order,
    sum_genus_zetas,
)
from .ideals import count_ideals, count_ideals_at_prime
from .pipeline import analyze, verify_order, zeta_series


def _source(args) -> TableAlgebra:
    if args.file:
        return load_algebra(args.file)
    if args.family == "fusion":
        if not args.name:
            raise InputError("--family fusion needs --name")
        return FamilySpec("fusion", name=args.name).resolve()
    if args.family in ("drt", "conference"):
        if args.u is None:
            raise InputError(f"--family {args.family} needs --u")
        return FamilySpec(args.family, u=args.u).resolve()
    raise InputError("give either a file or --family drt|conference|fusion")


def _add_source_args(sp):
    sp.add_argument("file", nargs="?", help="table algebra file (JSON record)")
    sp.add_argument("--family", choices=["drt", "conference", "fusion"])
    sp.add_argument("--u", type=int, help="family parameter u")
    sp.add_argument("--name", choices=list(FUSION_NAMES), help="fusion ring name")


def cmd_validate(args):
    t = _source(args)
    report = validate(t)
    if args.format == "json-like":
        print(json.dumps({"valid": report.ok, "violations": [list(v) for v in report.violations]}))
    else:
        print(report)
    return 0 if report.ok else 2


def cmd_decompose(args):
    t = _source(args)
    data = analyze(t)
    dec, order = data.decomposition, data.order
    if args.format == "json-like":
        print(
            json.dumps(
                {
                    "generator_index": dec.generator_index,
                    "minpoly": list(dec.minpoly),
                    "factors": [list(f) for f in dec.factors],
                    "idempotents": [[str(x) for x in e] for e in dec.idempotents],
                    "maximal_order_basis": [[str(Fraction(x)) for x in row] for row in order.basis],
                    "index": order.index,
                    "conductor": order.conductor,
                    "bad_primes": order.bad_primes,
                    "component_rings": [list(r.defining_poly) for r in order.rings],
                }
            )
        )
        return 0
    print(f"generator\tb{dec.generator_index}")
    print(f"minpoly\t{list(dec.minpoly)}")
    for f, ring, e in zip(dec.factors, order.rings, dec.idempotents):
        print(f"factor\t{list(f)}\tring\t{list(ring.defining_poly)}\tidempotent\t{_vec(e)}")
    for row in order.basis:
        print(f"lambda0\t{_vec(row)}")
    print(f"index\t{order.index}")
    print(f"conductor\t{order.conductor}")
    print(f"bad_primes\t{' '.join(str(p) for p in order.bad_primes) if order.bad_primes else '-'}")
    return 0


def _vec(v):
    return "(" + ", ".join(str(Fraction(x)) for x in v) + ")"


def cmd_count(args):
    t = _source(args)
    if args.prime is not None:
        counts = count_ideals_at_prime(t.lam, args.prime, args.kmax)
        for k, a in enumerate(counts):
            print(f"{args.prime}^{k}\t{a}")
    else:
        series = count_ideals(t.lam, args.max_index)
        for n in range(1, args.max_index + 1):
            print(f"{n}\t{series.a(n)}")
    return 0


def cmd_zeta(args):
    t = _source(args)
    series = zeta_series(t, args.max_index, progress=sys.stderr)
    print(series)
    return 0


def cmd_verify(args):
    t = _source(args)
    res = verify_order(t, args.max_index, progress=sys.stderr)
    for p in sorted(res.deltas):
        print(f"delta_{p}\t{_poly_str(res.deltas[p])}")
    for n, got, want in res.mismatches[:20]:
        print(f"mismatch\tn={n}\toracle={got}\tassembled={want}")
    print("PASS" if res.passed else "FAIL")
    return 0 if res.passed else 1


def cmd_genus(args):
    from . import genus  # resolved at call time, so the benchmark's traced run times the one measure call per class

    spec = FamilySpec(args.family, u=args.u) if args.family in ("drt", "conference") else None
    if spec is None:
        raise InputError("genus needs --family drt|conference")
    n = spec.order()
    if args.symbolic_p:
        if args.prime is not None:
            raise InputError("--symbolic-p takes no --prime")
        model = LocalModel(p=None, m=args.m if args.m is not None else 1, v=None)
    else:
        if args.m is not None:
            raise InputError("--m needs --symbolic-p; with --prime, m comes from v_p(n)")
        if not args.prime:
            raise InputError("genus needs --prime (or --symbolic-p with --m)")
        model = model_for_order(n, args.prime)
    zetas = []
    for rep in enumerate_genus_representatives(model):
        mu = genus.automorphism_measure_inverse(model, rep.params)
        z = genus_zeta(model, rep, muinv=mu)
        zetas.append(z)
        r, i, j = rep.params
        idx = f"p^{3 * model.m + 1 - i - j}"
        print(f"M({r},{i},{j})\t{idx}\t{mu}\t{z}")
    print(f"total\t\t\t{sum_genus_zetas(zetas)}")
    return 0


def main(argv=None):
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
    sp.add_argument("--max-index", type=int, default=20)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--kmax", type=int, default=3)
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

    args = ap.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
