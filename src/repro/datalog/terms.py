"""Terms of the Vadalog language: constants, variables and labelled nulls.

Following the paper's preliminaries (Section 3), we work with three disjoint
countably infinite sets:

* ``C`` — constants (wrapped Python values: strings, ints, floats, bools);
* ``V`` — variables (named placeholders, universally quantified in rules);
* ``N`` — labelled nulls (fresh witnesses for existentially quantified
  head variables, produced by chase steps).

All terms are immutable and hashable, so they can be used freely as members
of facts, substitution keys and set elements.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass
from typing import Union

#: The Python types a :class:`Constant` may wrap.
ConstantValue = Union[str, int, float, bool]


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant from the domain ``C``.

    The wrapped ``value`` keeps its Python type: numeric constants take part
    in arithmetic and comparisons, strings are used for entity identifiers
    and channel labels (e.g. ``"long"`` / ``"short"`` in the stress test).
    """

    value: ConstantValue

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return self.value
        if isinstance(self.value, float) and self.value.is_integer():
            return str(int(self.value))
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    @property
    def is_numeric(self) -> bool:
        """Whether the constant can take part in arithmetic."""
        return isinstance(self.value, (int, float)) and not isinstance(self.value, bool)


@dataclass(frozen=True, slots=True)
class Variable:
    """A variable from ``V``, identified by its name.

    By convention (matching the paper's rules) variable names are short
    lower-case identifiers such as ``x``, ``y``, ``s``, ``p1``; the parser
    treats any lowercase-initial identifier inside an atom as a variable.
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Null:
    """A labelled null from ``N``.

    Nulls are produced by chase steps for existentially quantified head
    variables.  Each null carries a unique integer label; two nulls are
    equal iff their labels coincide.
    """

    label: int

    def __str__(self) -> str:
        return f"_N{self.label}"

    def __repr__(self) -> str:
        return f"Null({self.label})"


#: Any term: a member of ``C``, ``V`` or ``N``.
Term = Union[Constant, Variable, Null]


class NullFactory:
    """Thread-safe generator of fresh labelled nulls.

    A chase run owns one factory so that null labels are unique within the
    run and deterministic across runs with the same inputs.
    """

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def fresh(self) -> Null:
        """Return a null that has never been produced by this factory."""
        with self._lock:
            return Null(next(self._counter))


def is_ground(term: Term) -> bool:
    """True iff ``term`` contains no variable (constants and nulls are ground)."""
    return not isinstance(term, Variable)


#: A string constant the parser reads back bare: compiled once, since
#: every rendered fact runs it once per constant.
_bare_constant = re.compile(r"[A-Z][A-Za-z0-9_]*").fullmatch


def term_syntax(term: Term) -> str:
    """Render a term in *rule syntax* (as opposed to natural language).

    Symbolic constants that the parser would read back as constants
    (capitalized identifiers) render bare; any other string constant is
    quoted, so that ``parse(str(rule))`` always round-trips.  Numbers and
    variables render as themselves.
    """
    if isinstance(term, Constant) and isinstance(term.value, str):
        if _bare_constant(term.value):
            return term.value
        return f'"{term.value}"'
    return str(term)


#: Shared :class:`Constant` objects, keyed by (type, value) so that
#: ``1``, ``1.0`` and ``True`` — equal values of distinct types — keep
#: their own wrapper and render exactly as written.  Bounded: beyond the
#: cap, fresh objects are returned (correctness never depends on sharing).
_CONSTANT_POOL: dict[tuple[type, ConstantValue], Constant] = {}
_CONSTANT_POOL_LIMIT = 1 << 16
_CONSTANT_POOL_LOCK = threading.Lock()


def intern_constant(value: ConstantValue) -> Constant:
    """A shared :class:`Constant` wrapping ``value``.

    The parser and the fact loaders funnel every constant through this
    pool, so the thousands of repeated entity names in a fact file share
    one object each — equality checks short-circuit on identity and the
    per-database symbol table (:mod:`repro.engine.symbols`) interns each
    distinct constant's hash once.  Pooling is by exact type as well as
    value: it is an allocation cache, not a value unification (that is
    the symbol table's job), so it must never swap ``1.0`` for ``1``.
    """
    key = (type(value), value)
    shared = _CONSTANT_POOL.get(key)
    if shared is None:
        shared = Constant(value)
        if len(_CONSTANT_POOL) < _CONSTANT_POOL_LIMIT:
            with _CONSTANT_POOL_LOCK:
                shared = _CONSTANT_POOL.setdefault(key, shared)
    return shared


def make_term(value: object) -> Term:
    """Coerce a raw Python value (or an existing term) into a :class:`Term`.

    Strings, numbers and booleans become constants; terms pass through
    unchanged.  This is the convenience entry point used by the fluent
    fact-construction helpers in :mod:`repro.engine.database`.
    """
    if isinstance(value, (Constant, Variable, Null)):
        return value
    if isinstance(value, (str, int, float, bool)):
        return intern_constant(value)
    raise TypeError(f"cannot interpret {value!r} as a term")
