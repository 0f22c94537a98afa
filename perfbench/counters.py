"""Per-layer metrics from the spans of the traced passes.

Layer times are seconds per traced pass: a span name's inclusive time
(``*_s``) or, for ``cli.self_s`` and ``genus.genus_zeta_self_s``, its
self time.  A layer that a workload never enters reads 0.  Work counters
are computed here from the arguments and results of the kernel calls
that ran (``ideals._count_for_index`` for the HNF stream,
``ideals._count_prime_power_dim3``/``_dim2`` for the collapse kernel),
by formulas that do not use tablezeta code; they do not depend on the
machine and must repeat exactly from pass to pass.
"""

import math
import statistics
from functools import lru_cache

from spans import ROOT, calls_by_name, inclusive_by_name, self_by_name

TIMES = (
    ("ideals.count_ideals_s", "ideals.count_ideals"),
    ("ideals.count_ideals_at_prime_s", "ideals.count_ideals_at_prime"),
    ("pipeline.analyze_s", "pipeline.analyze"),
    ("pipeline.infer_exceptional_factors_s", "pipeline.infer_exceptional_factors"),
    ("decomposition.find_generator_s", "decomposition.find_generator"),
    ("decomposition.maximal_order_s", "decomposition.maximal_order"),
    ("decomposition.primitive_idempotents_s", "decomposition.primitive_idempotents"),
    ("dirichlet.assemble_global_s", "dirichlet.assemble_global"),
    ("dirichlet.maximal_local_factor_s", "dirichlet.maximal_local_factor"),
    ("dirichlet.infer_local_polynomial_s", "dirichlet.infer_local_polynomial"),
    ("genus.enumerate_genus_representatives_s", "genus.enumerate_genus_representatives"),
    ("genus.complementary_lattice_s", "genus.complementary_lattice"),
    ("genus.decompose_domain_s", "genus.decompose_domain"),
    ("genus.automorphism_measure_inverse_s", "genus.automorphism_measure_inverse"),
    ("genus.total_local_zeta_s", "genus.total_local_zeta"),
    ("families.resolve_s", "families.resolve"),
    ("algfile.load_algebra_s", "algfile.load_algebra"),
    ("algebra.validate_s", "algebra.validate"),
)
SELF_TIMES = (
    ("cli.self_s", ROOT),
    ("genus.genus_zeta_self_s", "genus.genus_zeta"),
)
CALLS = (
    ("ideals.count_ideals_calls", "ideals.count_ideals"),
    ("ideals.count_ideals_at_prime_calls", "ideals.count_ideals_at_prime"),
    ("decomposition.find_generator_calls", "decomposition.find_generator"),
    ("dirichlet.maximal_local_factor_calls", "dirichlet.maximal_local_factor"),
)
DEPTH_PRIMES = (2, 3, 5, 7)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def sublattices(dim, n, col=0):
    """Index-n sublattices of Z^dim in Hermite normal form: a diagonal
    (d_1..d_dim) with product n and d_j^(j-1) off-diagonal choices in
    column j."""
    if col == dim - 1:
        return n**col
    return sum(d**col * sublattices(dim, n // d, col + 1) for d in _divisors(n))


def _primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def work_counters(spans):
    c = {
        "ideals.stream_sublattices": 0,
        "ideals.stream_ideals": 0,
        "ideals.collapse_cells": 0,
        "ideals.collapse_ideals": 0,
        "pipeline.oracle_retries": 0,
        "dirichlet.assembled_primes": 0,
        "dirichlet.not_stabilized": 0,
        "genus.representatives": 0,
        "genus.regions": 0,
    }
    c.update({f"pipeline.oracle_depth.p{p}": 0 for p in DEPTH_PRIMES})
    calls = calls_by_name(spans)
    c.update({metric: calls.get(name, 0) for metric, name in CALLS})
    stream_s = collapse_s = 0.0
    depth = {}  # (infer span, p) -> deepest kmax; each further call there is a retry
    for s in spans:
        name, note = s[0], s[5]
        if name == "dirichlet.infer_local_polynomial" and s[6] == "NotStabilized":
            c["dirichlet.not_stabilized"] += 1
        if note is None:  # no noted arguments, or the call raised
            continue
        if name == "ideals._count_for_index":
            c["ideals.stream_sublattices"] += sublattices(note["dim"], note["n"])
            c["ideals.stream_ideals"] += note["ideals"]
            stream_s += s[2] - s[1]
        elif name in ("ideals._count_prime_power_dim3", "ideals._count_prime_power_dim2"):
            # the kernel loops over entry (0,1) < d2, and for rank 3 also (1,2) < d3
            c["ideals.collapse_cells"] += math.prod(note["diag"][1:])
            c["ideals.collapse_ideals"] += note["ideals"]
            collapse_s += s[2] - s[1]
        elif name == "ideals.count_ideals_at_prime":
            parent = spans[s[3]] if s[3] is not None else None
            if parent is not None and parent[0] == "pipeline.infer_exceptional_factors":
                key = (s[3], note["p"])
                if key in depth:
                    c["pipeline.oracle_retries"] += 1
                depth[key] = max(depth.get(key, 0), note["kmax"])
        elif name == "dirichlet.assemble_global":
            c["dirichlet.assembled_primes"] += len(_primes_up_to(note["bound"]))
        elif name == "genus.enumerate_genus_representatives":
            c["genus.representatives"] += note["n"]
        elif name == "genus.decompose_domain":
            c["genus.regions"] += note["n"]
    for (_, p), k in depth.items():
        if p in DEPTH_PRIMES:
            c[f"pipeline.oracle_depth.p{p}"] += k
    return c, stream_s, collapse_s


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(passes, walls):
    """(metrics, per-name seconds table, names of counters that differ
    between passes) over the traced passes."""
    each = [work_counters(spans) for spans in passes]
    counts = each[0][0]
    mismatch = [k for k in counts if any(e[0][k] != counts[k] for e in each[1:])]
    stream_s = collapse_s = 0.0
    incl, own, calls = {}, {}, {}
    for spans, (_, s_s, c_s) in zip(passes, each):
        stream_s += s_s
        collapse_s += c_s
        for acc, part in ((incl, inclusive_by_name(spans)), (own, self_by_name(spans)), (calls, calls_by_name(spans))):
            for k, v in part.items():
                acc[k] = acc.get(k, 0) + v
    n = len(passes)
    m = {}
    for metric, name in TIMES:
        m[metric] = (incl.get(name, 0.0) / n, "s")
    for metric, name in SELF_TIMES:
        m[metric] = (own.get(name, 0.0) / n, "s")
    m["trace.overhead_ratio"] = (statistics.median(walls["traced"]) / statistics.median(walls["plain"]), "ratio")
    for k, v in counts.items():
        m[k] = (v, "count")
    m["ideals.stream_hit_ratio"] = (_ratio(counts["ideals.stream_ideals"], counts["ideals.stream_sublattices"]), "ratio")
    m["ideals.collapse_hit_ratio"] = (_ratio(counts["ideals.collapse_ideals"], counts["ideals.collapse_cells"]), "ratio")
    m["ideals.stream_sublattices_per_s"] = (_ratio(counts["ideals.stream_sublattices"] * n, stream_s), "1/s")
    m["ideals.collapse_cells_per_s"] = (_ratio(counts["ideals.collapse_cells"] * n, collapse_s), "1/s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    layers = {
        name: {"calls": calls[name] / n, "inclusive_s": incl[name] / n, "self_s": own[name] / n}
        for name in sorted(incl)
    }
    return metrics, layers, mismatch


def layer_table(layers):
    "Human-readable per-pass seconds per span name."
    yield "span\tcalls/pass\tinclusive_s/pass\tself_s/pass"
    for name, row in layers.items():
        yield f"{name}\t{row['calls']:g}\t{row['inclusive_s']:.4f}\t{row['self_s']:.4f}"
