"""eqsing: exact-arithmetic toolkit for the simplicity criterion of
Z2-invariant and corner singularities.

Builds intersection lattices of Milnor fibres from Dynkin-diagram data,
computes isotypic sublattices of Z2^m actions, classifies the restricted
intersection form, and decides finiteness of the equivariant monodromy
group with verifiable certificates.
"""

from .lattice import IntLattice, Inertia, Sublattice, inertia, kernel_basis
from .diagram import DynkinDiagram, DiagramFile, parse_diagram, parse_file, serialize, to_lattice
from .action import (
    Character,
    GroupAction,
    SignedPermutation,
    corner_rule,
    isotypic_sublattice,
    signed_orbits,
    validate_action,
    z2_rule,
)
from .monodromy import (
    Finite,
    Infinite,
    MonodromyElement,
    Unknown,
    generate_group,
    power_law_check,
)
from .localalg import (
    LocalAlgebraReport,
    PolyGerm,
    coranks,
    germ,
    milnor_number,
    parse_germ,
    quasihomogeneous_mu,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "IntLattice", "Inertia", "Sublattice", "inertia", "kernel_basis",
    "DynkinDiagram", "DiagramFile", "parse_diagram", "parse_file", "serialize",
    "to_lattice",
    "Character", "GroupAction", "SignedPermutation", "corner_rule",
    "isotypic_sublattice", "signed_orbits", "validate_action", "z2_rule",
    "Finite", "Infinite", "MonodromyElement", "Unknown", "generate_group",
    "power_law_check",
    "LocalAlgebraReport", "PolyGerm", "coranks", "germ", "milnor_number",
    "parse_germ", "quasihomogeneous_mu",
    "catalog",
]
