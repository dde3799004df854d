"""eqsing: exact-arithmetic toolkit for the simplicity criterion of
Z2-invariant and corner singularities.

Builds intersection lattices of Milnor fibres from Dynkin-diagram data,
computes isotypic sublattices of Z2^m actions, classifies the restricted
intersection form, and decides finiteness of the equivariant monodromy
group with verifiable certificates.

The package imports none of its layers: each is imported by its module
name, so a command loads only the layers it runs.
"""

__version__ = "0.1.0"

__all__ = ["action", "catalog", "cli", "diagram", "errors", "lattice", "linalg",
           "localalg", "monodromy"]
