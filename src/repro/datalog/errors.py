"""Exception hierarchy for the Datalog/Vadalog substrate.

All errors raised by :mod:`repro.datalog` derive from :class:`DatalogError`
so that callers can catch substrate-level failures with a single handler
while still discriminating parse errors from semantic ones.
"""

from __future__ import annotations


class UserError(ValueError):
    """A question or input the caller got wrong, not a pipeline fault: an
    ``error:`` line and exit 2 in the CLI, ``status`` and ``reason`` over HTTP."""

    status, reason = 400, "bad_request"


class NotDerived(UserError, KeyError):
    """The queried fact is no derivation of the chase (still a KeyError)."""

    status, reason = 404, "not_derived"

    def __init__(self, fact: object):
        super().__init__(f"{fact} was not derived by the chase")
        self.fact = fact


class DatalogError(Exception):
    """Base class for all errors raised by the Datalog substrate."""


class ParseError(DatalogError, UserError):
    """Raised when a program or rule text cannot be parsed.

    Carries the offending ``text`` and, when available, the ``position``
    (character offset) at which parsing failed.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None and text:
            context = text[max(0, position - 20):position + 20]
            message = f"{message} (near ...{context!r}... at offset {position})"
        super().__init__(message)


class SafetyError(DatalogError, UserError):
    """Raised when a rule violates the Datalog safety condition.

    Every variable appearing in the head (or in a condition) must appear in
    a positive body atom or be defined by an aggregate.
    """


class ArityError(DatalogError, UserError):
    """Raised when a predicate is used with inconsistent arities."""


class EvaluationError(DatalogError, UserError):
    """Raised when a condition or arithmetic expression cannot be evaluated,
    e.g. comparing a string with a number or dividing by zero."""


class GlossaryError(DatalogError, UserError):
    """Raised when a domain glossary is inconsistent with the program schema
    (missing predicate entries, wrong token counts, unknown tokens)."""
