"""The three exception types of the toolkit, and the one number grammar of
its inputs.

A refusal is an EqsingError, and its message is what tells one refusal
from another: the CLI prints it as one `error:` line and exits 2.  Only
two kinds have callers that catch them apart (notes/decisions.md, "An
error is its message"): an InternalError is a defect, never a verdict, and
is also the AssertionError a caller of the library may catch; a
DiagramError carries the file line at fault, which `diagram.parse_file`
adds to a check of a built diagram.

Every integer a file or an option spells is ASCII [+-]?[0-9]+, and every
rational [+-]?[0-9]+(/[0-9]+)?.  Python's int() and Fraction() also take
`1_0`, surrounding spaces, any Unicode decimal digit, and decimals such as
`.5` or `1e3`; the readers here take none of them.  Every subcommand
imports this module, so both readers cost no extra load; `fractions` is
imported inside `parse_rational`, which only the germ side calls.  A
library caller passes numbers, and a record refuses an integer entry
that is not an `int` instead of converting it.
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
    """Every refusal of an input the toolkit cannot judge."""


class InternalError(EqsingError, AssertionError):
    """An internal invariant failed: inconsistent data or a defect, never a
    verdict.  Negative definiteness and finiteness disagreeing on a decided
    verdict is one (notes/decisions.md).  It is also an AssertionError,
    which is what it replaces."""


class DiagramError(EqsingError):
    """A line of a diagram or polynomial file at fault, or a check of a
    built diagram, or a diagram the criterion does not take.

    `line` is the file line at fault, when known.  `entry` is ("vertices"
    or "edges", position) when a check of a DynkinDiagram's input fails, so
    that a parser can name the line the entry came from; `detail` is the
    message without the line.
    """

    def __init__(self, message, line=None, entry=None):
        self.line = line
        self.entry = entry
        self.detail = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
