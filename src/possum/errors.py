"""Exception types shared across the package.

Every deliberate failure raised by possum derives from PossumError, so
callers (the CLI in particular) can separate engine-reported conditions,
such as a derivation cycle in a knowledge base that skipped validation,
from plain bugs.  Conflict errors get their own branch: they signal
inconsistent evidence rather than misuse of the API, and the CLI maps
them to a distinct exit code.
"""

from __future__ import annotations


class PossumError(Exception):
    """Base class for all errors raised deliberately by possum."""


class DomainError(PossumError):
    """A numeric argument left its domain (certainty values live in [0, 1])."""


class ConflictError(PossumError):
    """Evidence combination produced an inverted interval under strict policy."""


class EvidenceConflictError(ConflictError):
    """Aggregated support paths disagree: lower bound exceeds upper bound."""


class SourceConflictError(ConflictError):
    """Independent sources disagree about one fact beyond reconciliation."""


class UnboundRoleError(PossumError):
    """Substitution met a role variable with no binding."""

    def __init__(self, variable: str, atom: str):
        super().__init__(f"role {variable} is unbound in {atom}")
        self.variable = variable
        self.atom = atom


class UnknownPathError(PossumError):
    """A taxonomy path was referenced but never declared."""


class DerivationCycleError(PossumError):
    """A goal's derivation needs that goal itself as a premise."""


class ParseError(PossumError):
    """Syntax or range error in the knowledge-base language.

    Carries enough position data to print editor-style messages
    (``file:line:column: message``).
    """

    def __init__(self, message: str, line: int, column: int, source_name: str = "<input>"):
        super().__init__(f"{source_name}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.source_name = source_name


class ParseFailure(PossumError):
    """Several parse errors from one recovering parse run."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("\n".join(str(e) for e in errors))
        self.errors = errors
