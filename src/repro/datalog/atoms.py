"""Atoms and facts over a relational schema.

An *atom* is an expression ``R(t1, ..., tn)`` where ``R`` is a predicate
symbol of arity ``n`` and each ``ti`` is a term.  A *fact* is a ground atom
(no variables); the extensional database and every fact produced by the
chase are facts in this sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ArityError
from .terms import Constant, Null, Term, Variable, is_ground, make_term, term_syntax


@dataclass(frozen=True, slots=True)
class Predicate:
    """A relation symbol with an associated arity."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Atom:
    """An atom ``R(t1, ..., tn)`` over a schema.

    Atoms are immutable; the ``terms`` tuple may mix constants, variables
    and nulls.  Ground atoms double as facts (see :func:`Atom.is_fact`).
    """

    predicate: str
    terms: tuple[Term, ...]
    #: The hash, computed once: facts key every index of the engine.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ArityError("atom predicate name must be non-empty")
        object.__setattr__(self, "_hash", hash((self.predicate, self.terms)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never ship it.
        return (Atom, (self.predicate, self.terms))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def signature(self) -> Predicate:
        return Predicate(self.predicate, self.arity)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of the atom, left to right, with repeats."""
        for term in self.terms:
            if isinstance(term, Variable):
                yield term

    def variable_set(self) -> frozenset[Variable]:
        return frozenset(self.variables())

    def constants(self) -> Iterator[Constant]:
        for term in self.terms:
            if isinstance(term, Constant):
                yield term

    def nulls(self) -> Iterator[Null]:
        for term in self.terms:
            if isinstance(term, Null):
                yield term

    def is_fact(self) -> bool:
        """True iff the atom is ground, i.e. a fact."""
        return all(is_ground(term) for term in self.terms)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, predicate: str, *values: object) -> "Atom":
        """Build an atom coercing raw Python values into terms.

        >>> Atom.of("Own", "A", "B", 0.6)
        Atom(predicate='Own', terms=(Constant('A'), Constant('B'), Constant(0.6)))
        """
        return cls(predicate, tuple(make_term(v) for v in values))

    def with_terms(self, terms: Iterable[Term]) -> "Atom":
        """Return a copy of this atom with the given terms."""
        return Atom(self.predicate, tuple(terms))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        args = ", ".join(term_syntax(t) for t in self.terms)
        return f"{self.predicate}({args})"


def fact(predicate: str, *values: object) -> Atom:
    """Build a ground atom, raising if any argument is a variable.

    This is the preferred constructor for extensional data:

    >>> fact("HasCapital", "A", 5)
    Atom(predicate='HasCapital', terms=(Constant('A'), Constant(5)))
    """
    atom = Atom.of(predicate, *values)
    if not atom.is_fact():
        raise ArityError(f"fact {atom} contains variables")
    return atom


#: Alias used throughout the engine for ground atoms.
Fact = Atom


def check_consistent_arities(atoms: Iterable[Atom]) -> dict[str, int]:
    """Verify that every predicate is used with a single arity.

    Returns the inferred ``predicate -> arity`` schema; raises
    :class:`ArityError` on the first inconsistency.
    """
    schema: dict[str, int] = {}
    for atom in atoms:
        known = schema.get(atom.predicate)
        if known is None:
            schema[atom.predicate] = atom.arity
        elif known != atom.arity:
            raise ArityError(
                f"predicate {atom.predicate} used with arity {atom.arity} "
                f"but previously with arity {known}"
            )
    return schema
