"""In-memory spans around the calls one tablezeta module makes into another.

The traced run temporarily replaces the module attributes through which
one module calls another (for example ``pipeline.count_ideals``) with
timing wrappers and restores them afterwards; no file under ``src/`` is
edited.  Only functions called at most about 10^4 times per pass are
wrapped (never the per-lattice ``ideals._in_lattice``), so the wrappers
cost little next to the work they time.

A span is ``[name, start, end, parent, op, note, error]``: ``parent`` is
the index of the enclosing span (None for an operation's root), ``op``
the operation id, ``note`` a few numbers taken from the call's arguments
and result, from which the work counters are computed after the pass.
"""

import contextlib
import functools
import importlib
import inspect
import time


def _note_at_prime(a, result):
    return {"p": a["p"], "kmax": a["kmax"]}


def _note_stream_kernel(a, result):
    _, dim, n = a["job"]
    return {"dim": dim, "n": n, "ideals": result}


def _note_collapse_kernel(a, result):
    return {"diag": tuple(a["diag"]), "ideals": result}


def _note_assemble(a, result):
    return {"bound": a["bound"]}


def _note_len(a, result):
    return {"n": len(result)}


# (module, attribute, span name, note).  Each function is wrapped both
# where it is defined and under every alias another module calls it by;
# a dotted attribute names a method on a class of the module.
WRAP_POINTS = (
    ("tablezeta.cli", "verify_order", "pipeline.verify_order", None),
    ("tablezeta.cli", "zeta_series", "pipeline.zeta_series", None),
    ("tablezeta.cli", "count_ideals", "ideals.count_ideals", None),
    ("tablezeta.cli", "count_ideals_at_prime", "ideals.count_ideals_at_prime", _note_at_prime),
    ("tablezeta.cli", "load_algebra", "algfile.load_algebra", None),
    ("tablezeta.cli", "model_for_order", "genus.model_for_order", None),
    ("tablezeta.cli", "enumerate_genus_representatives", "genus.enumerate_genus_representatives", _note_len),
    ("tablezeta.cli", "genus_zeta", "genus.genus_zeta", None),
    ("tablezeta.cli", "total_local_zeta", "genus.total_local_zeta", None),
    ("tablezeta.families", "validate", "algebra.validate", None),
    ("tablezeta.decomposition", "validate", "algebra.validate", None),
    ("tablezeta.pipeline", "analyze", "pipeline.analyze", None),
    ("tablezeta.pipeline", "infer_exceptional_factors", "pipeline.infer_exceptional_factors", None),
    ("tablezeta.pipeline", "verify_order", "pipeline.verify_order", None),
    ("tablezeta.pipeline", "zeta_series", "pipeline.zeta_series", None),
    ("tablezeta.pipeline", "count_ideals", "ideals.count_ideals", None),
    ("tablezeta.pipeline", "count_ideals_at_prime", "ideals.count_ideals_at_prime", _note_at_prime),
    ("tablezeta.pipeline", "assemble_global", "dirichlet.assemble_global", _note_assemble),
    ("tablezeta.pipeline", "maximal_local_factor", "dirichlet.maximal_local_factor", None),
    ("tablezeta.pipeline", "infer_local_polynomial", "dirichlet.infer_local_polynomial", None),
    ("tablezeta.pipeline", "find_generator", "decomposition.find_generator", None),
    ("tablezeta.pipeline", "factor_min_poly", "decomposition.factor_min_poly", None),
    ("tablezeta.pipeline", "primitive_idempotents", "decomposition.primitive_idempotents", None),
    ("tablezeta.pipeline", "maximal_order", "decomposition.maximal_order", None),
    ("tablezeta.ideals", "count_ideals", "ideals.count_ideals", None),
    ("tablezeta.ideals", "count_ideals_at_prime", "ideals.count_ideals_at_prime", _note_at_prime),
    # the kernels that do the counting, one call per index n or per diagonal
    ("tablezeta.ideals", "_count_for_index", "ideals._count_for_index", _note_stream_kernel),
    ("tablezeta.ideals", "_count_prime_power_dim3", "ideals._count_prime_power_dim3", _note_collapse_kernel),
    ("tablezeta.ideals", "_count_prime_power_dim2", "ideals._count_prime_power_dim2", _note_collapse_kernel),
    ("tablezeta.decomposition", "find_generator", "decomposition.find_generator", None),
    ("tablezeta.decomposition", "factor_min_poly", "decomposition.factor_min_poly", None),
    ("tablezeta.decomposition", "primitive_idempotents", "decomposition.primitive_idempotents", None),
    ("tablezeta.decomposition", "maximal_order", "decomposition.maximal_order", None),
    ("tablezeta.dirichlet", "assemble_global", "dirichlet.assemble_global", _note_assemble),
    ("tablezeta.dirichlet", "maximal_local_factor", "dirichlet.maximal_local_factor", None),
    ("tablezeta.dirichlet", "infer_local_polynomial", "dirichlet.infer_local_polynomial", None),
    ("tablezeta.genus", "model_for_order", "genus.model_for_order", None),
    ("tablezeta.genus", "enumerate_genus_representatives", "genus.enumerate_genus_representatives", _note_len),
    ("tablezeta.genus", "complementary_lattice", "genus.complementary_lattice", None),
    ("tablezeta.genus", "decompose_domain", "genus.decompose_domain", _note_len),
    ("tablezeta.genus", "automorphism_measure_inverse", "genus.automorphism_measure_inverse", None),
    ("tablezeta.genus", "genus_zeta", "genus.genus_zeta", None),
    ("tablezeta.genus", "total_local_zeta", "genus.total_local_zeta", None),
    ("tablezeta.algebra", "validate", "algebra.validate", None),
    ("tablezeta.algfile", "load_algebra", "algfile.load_algebra", None),
    ("tablezeta.families", "FamilySpec.resolve", "families.resolve", None),
)

ROOT = "cli.main"


class Tracer:
    "Collects spans for one pass; ``op`` is the id stamped on new spans."

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def call(self, name, fn, args, kwargs, note=None, sig=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            rec[2] = time.perf_counter()
            rec[6] = type(e).__name__
            raise
        else:
            rec[2] = time.perf_counter()
        finally:
            self._stack.pop()
        if note is not None:
            rec[5] = note(sig.bind(*args, **kwargs).arguments, result)
        return result


def _wrapper(tracer, name, fn, note):
    sig = inspect.signature(fn) if note is not None else None

    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note, sig)

    return functools.wraps(fn)(wrapped)


@contextlib.contextmanager
def installed(tracer):
    """Wrap every reachable point for the duration of the block; yields the
    list of points that no longer exist (a renamed function), which the
    caller reports so that lost attribution is visible."""
    saved, missing = [], []
    try:
        for mod_name, path, name, note in WRAP_POINTS:
            *owners, attr = path.split(".")
            owner = importlib.import_module(mod_name)
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{path}")
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrapper(tracer, name, fn, note))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans):
    "Per span: its duration minus the durations of its direct children."
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def inclusive_by_name(spans):
    """Total duration per span name, not counting a span nested inside
    another span of the same name twice."""
    out = {}
    for s in spans:
        j = s[3]
        while j is not None and spans[j][0] != s[0]:
            j = spans[j][3]
        if j is None:
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1])
    return out


def self_by_name(spans):
    out = {}
    for s, own in zip(spans, self_times(spans)):
        out[s[0]] = out.get(s[0], 0.0) + own
    return out


def calls_by_name(spans):
    out = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0) + 1
    return out
