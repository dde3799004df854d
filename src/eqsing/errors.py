"""Exception types shared across the toolkit, and the one number grammar
of its inputs.

Every integer a file or an option spells is ASCII [+-]?[0-9]+, and every
rational [+-]?[0-9]+(/[0-9]+)?.  Python's int() and Fraction() also take
`1_0`, surrounding spaces, any Unicode decimal digit, and decimals such as
`.5` or `1e3`; the readers here take none of them.  Every subcommand
imports this module, so both readers cost no extra load; `fractions` is
imported inside `parse_rational`, which only the germ side calls.
"""


def _is_int(text):
    """True when `text` is [+-]?[0-9]+."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def parse_int(text):
    """The integer `text` spells as [+-]?[0-9]+; ValueError otherwise."""
    if not _is_int(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def parse_rational(text):
    """The Fraction `text` spells as [+-]?[0-9]+(/[0-9]+)?; ValueError
    otherwise, and on a zero denominator."""
    from fractions import Fraction

    num, slash, den = text.partition("/")
    if not (_is_int(num) and (not slash or den.isascii() and den.isdigit() and int(den))):
        raise ValueError(f"expected a rational p or p/q, got {text!r}")
    return Fraction(int(num), int(den) if slash else 1)


class EqsingError(Exception):
    """Base class for all toolkit errors."""


class InternalError(EqsingError, AssertionError):
    """An internal invariant failed: inconsistent data or a defect, never a
    verdict.  It is also an AssertionError, which is what it replaces."""


class NotFoundError(EqsingError, KeyError):
    """A lookup found nothing: a character a `LocalAlgebraReport` does not
    list.  Also a KeyError."""


# --- diagram file parsing ---

class DiagramError(EqsingError):
    """Structural or syntactic problem in a diagram file, or a diagram the
    criterion does not take: a self-intersection other than -2.

    `line` is the file line at fault, when known.  `entry` is ("vertices"
    or "edges", position) when a check of a DynkinDiagram's input fails, so
    that a parser can name the line the entry came from.
    """

    def __init__(self, message, line=None, entry=None):
        self.line = line
        self.entry = entry
        self.detail = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DiagramSyntaxError(DiagramError):
    pass


class DuplicateVertexError(DiagramError):
    pass


class DanglingEdgeError(DiagramError):
    pass


class DuplicateEdgeError(DiagramError):
    pass


# --- lattices and sublattices ---

class LatticeDataError(EqsingError, ValueError):
    """A Gram matrix or sublattice basis that is not well formed; also a
    ValueError."""


class DependentBasisError(EqsingError):
    """Input vectors are linearly dependent over the rationals."""


# --- group actions ---

class ActionDataError(EqsingError, ValueError):
    """A signed permutation, character or generator list that is not well
    formed; also a ValueError."""


class ActionError(EqsingError):
    """A group-action invariant is violated: the message names the
    generator or generators at fault and the first matrix entry at fault."""


class NotInvolutionError(ActionError):
    pass


class NotCommutingError(ActionError):
    pass


class NotIsometryError(ActionError):
    pass


class ZeroSublatticeError(EqsingError):
    """The character's isotypic sublattice is zero: nothing to restrict to."""


# --- monodromy engine ---

class IsotropicCycleError(EqsingError):
    """Reflection requested in a cycle of self-intersection zero."""


class NonIntegralReflectionError(EqsingError):
    """The Picard-Lefschetz map does not preserve the integer lattice."""


class OrbitNotOrthogonalError(EqsingError):
    """Orbit cycles are not pairwise orthogonal."""


class GeneratorError(EqsingError):
    """Generator roots the finiteness decision cannot take: none at all, or
    one that is no integer vector of the form's rank."""


# --- local algebra ---

class NotCertifiedError(EqsingError):
    """Quotient dimension could not be certified up to the degree cap.

    Raised both for non-isolated critical points and for an insufficient
    max_degree; the two are indistinguishable at a finite truncation.
    """

    def __init__(self, max_degree):
        self.max_degree = max_degree
        super().__init__(
            f"finiteness of the Jacobian quotient not certified at degree {max_degree}"
        )


class TableTooLargeError(EqsingError):
    """Before finiteness is certified, the monomials the Milnor number would
    list up to the next degree, n exponents each, are over a fixed bound."""


class GermError(EqsingError, ValueError):
    """Malformed germ data, such as a constant term; also a ValueError."""


class NotIntegerError(EqsingError):
    """Weight data does not yield an integer Milnor number."""


class NotInvariantError(EqsingError):
    """Polynomial is not invariant under the declared group action."""


# --- catalog ---

class BadParameterError(EqsingError):
    """Family parameter outside the allowed range or an excluded modulus."""


class NoFixtureError(EqsingError):
    """No bundled diagram/action fixture for the requested family."""


class CriterionMismatchError(InternalError):
    """Negative definiteness and monodromy finiteness disagree.

    On a diagram with -2 on every vertex the two decided criteria coincide
    (notes/decisions.md), so a mismatch is a defect, never a verdict.
    """
