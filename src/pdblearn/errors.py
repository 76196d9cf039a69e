"""Exception hierarchy for the engine.

Everything raised on purpose derives from :class:`PdbError` so callers can
catch engine failures without also swallowing programming mistakes.
"""

from __future__ import annotations


class PdbError(Exception):
    """Base class for all engine errors."""


class ParseError(PdbError):
    """Syntax error in formula, rule, or instance-file text.

    The text is built from the message, ``line`` and ``col`` when printed,
    so a caller that hands the parser part of a line can shift ``col``.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line, self.col = line, col

    def __str__(self):
        if self.line is None:
            return self.args[0]
        col = f", column {self.col}" if self.col is not None else ""
        return f"{self.args[0]} at line {self.line}{col}"


class SafetyError(PdbError):
    """A rule binds a head / negated / arithmetic variable outside its positive body."""


class CyclicProgramError(PdbError):
    """The dependency graph over derived relations contains a cycle."""


class UnknownRelationError(PdbError):
    """A body literal names a relation that is neither stored nor derived."""


class ArityError(PdbError):
    """A relation is used with inconsistent argument counts."""


class ComparisonTypeError(PdbError):
    """An arithmetic predicate compares an integer with a string."""


class MissingProbabilityError(PdbError):
    """A tuple's probability was required but is not known."""

    def __init__(self, tuple_id):
        self.tuple_id = tuple_id
        super().__init__(f"no probability known for tuple {tuple_id}")


class FormulaTooLargeError(PdbError):
    """Exhaustive world enumeration was asked to exceed its variable cutoff."""


class IntractableFormulaError(PdbError):
    """Exact decomposition needs more than ``inference.MAX_NODES`` nodes, or nests too deep."""


class NonBooleanLabelError(PdbError):
    """The logical objective requires every label target to be exactly 0.0 or 1.0."""


class InconsistentConstraintsError(PdbError):
    """A constraint set is unsatisfiable: no possible world fulfils all of it."""


class NoEvidenceError(PdbError):
    """An incomplete tuple has zero matching complete rows for every completion."""


class DanglingReferenceError(PdbError):
    """A label or formula references a tuple that the instance does not define."""
