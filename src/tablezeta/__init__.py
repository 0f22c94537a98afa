"""tablezeta: exact ideal-counting zeta functions for integral table
algebras and fusion rings.

The package computes Solomon zeta functions of the orders ZB defined by
commutative integral table algebras three independent ways and checks
them against each other: ideal counts by a descent through maximal
sub-ideals, Euler products of Dedekind factors with exceptional
polynomials fitted from ideal counts (completed by the functional
equation of Gorenstein orders, or counted to a proven degree bound), and
(for the rank-3 families) a symbolic local genus-zeta calculus.

Submodules load on first use: ``import tablezeta`` imports none of them,
and a name below (``tablezeta.count_ideals``) or a submodule
(``tablezeta.genus``) imports its module when it is first looked up.  So
a command line run compiles only the modules its command calls.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines; each module's own name gives the module
_EXPORTS = {
    "algebra": "BasisKind TableAlgebra validate",
    "algfile": "dump_algebra load_algebra parse_algebra",
    "cli": "",
    "decomposition": "find_generator maximal_order",
    "dirichlet": "LocalRationalFunction assemble_global expand infer_local_polynomial theorem_local_factor",
    "errors": "",
    "exact": "",
    "families": "FamilySpec conference drt fusion",
    "genus": "LatticeHNF LocalModel Region RegionPart complementary_lattice"
    " automorphism_measure_inverse decompose_domain enumerate_genus_representatives genus_zeta"
    " lattices_isomorphic model_for_order total_local_zeta",
    "ideals": "IdealCountSeries count_ideals count_ideals_at_prime",
    "modp": "",
    "pipeline": "verify_order zeta_series",
    "polys": "",
    "ppoly": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_HOME})
