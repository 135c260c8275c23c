"""Exception types and the validation report shared by the axiom checkers."""

from collections import namedtuple


class OmError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(OmError):
    """Malformed input file. Carries a position when one is known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class RealizationError(OmError):
    """Vector configuration cannot realize a chirotope of the requested rank."""


class DeletionError(OmError):
    """Deletion would drop the rank: no nonzero basis avoids the deleted set."""


class ContractionError(OmError):
    """Contraction precondition failed."""


class ConstructionError(OmError):
    """The hyperline construction could not complete on the given sign data."""


class ArrangementError(OmError):
    """Rank 1 or rank 2 arrangement data is internally inconsistent."""


class SizeGuardError(OmError):
    """Input past a size limit: one of the CLI's default limits (on every
    loaded input and on enumeration), the 10^6 signs a SignMap may list,
    or the domain of fm_realizable_topes (exponential work)."""


class Violation(namedtuple("Violation", "axiom witness message")):
    __slots__ = ()

    def __str__(self):
        return f"{self.axiom} violated: {self.message}"


class ValidationReport:
    """Outcome of an axiom check: every violated axiom with one witness
    each.  It holds violations only; an empty report is a pass."""

    def __init__(self):
        self.violations = []

    def __repr__(self):
        return f"ValidationReport(violations={self.violations!r})"

    @property
    def ok(self):
        return not self.violations

    def add(self, axiom, witness, message):
        self.violations.append(Violation(axiom, tuple(witness), message))

    def __str__(self):
        return "\n".join(map(str, self.violations)) or "ok"
