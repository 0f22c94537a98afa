"""tablezeta: exact ideal-counting zeta functions for integral table
algebras and fusion rings.

The package computes Solomon zeta functions of the orders ZB defined by
commutative integral table algebras three independent ways and checks
them against each other: brute-force sublattice enumeration, Euler
products of Dedekind factors with exceptional polynomials counted to a
proven degree bound, and (for the rank-3 families) a symbolic local
genus-zeta calculus.
"""

from .algebra import BasisKind, TableAlgebra, degree_map, regular_representation, rescale, validate
from .algfile import dump_algebra, load_algebra, parse_algebra
from .decomposition import (
    CharacterTable,
    character_formula_idempotents,
    character_table,
    find_generator,
    maximal_order,
    primitive_idempotents,
)
from .dirichlet import (
    DirichletSeries,
    LocalRationalFunction,
    assemble_global,
    dedekind_euler_factor,
    expand,
    infer_local_polynomial,
    theorem_local_factor,
)
from .families import FamilySpec, conference, drt, fusion
from .genus import (
    IntermediateLattice,
    LocalModel,
    Region,
    RegionPart,
    block_triangularize,
    complementary_lattice,
    automorphism_measure_inverse,
    decompose_domain,
    enumerate_genus_representatives,
    genus_zeta,
    lattices_isomorphic,
    model_for_order,
    region_integral,
    total_local_zeta,
)
from .ideals import (
    IdealCountSeries,
    LatticeHNF,
    count_ideals,
    count_ideals_at_prime,
    enumerate_sublattices,
    is_ideal,
)
from .pipeline import verify_order, zeta_series

__version__ = "0.1.0"
