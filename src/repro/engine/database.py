"""Columnar fact store with interned constants and per-predicate indexing.

A :class:`Database` is the extensional component of an EKG: a set of facts
over the schema.  During the chase it also accumulates the derived
(intensional) facts.  Facts are kept in insertion order — the chase relies
on this for deterministic rule application — with two synchronized
representations:

* the **row store** — per-predicate lists of the original :class:`Fact`
  objects, which every string-facing view (``facts()``, ``match()``,
  ``candidates()``, provenance rendering) serves, so output bytes never
  depend on interning;
* the **column store** — per-predicate columns of dense integer ids
  assigned by a shared :class:`~repro.engine.symbols.SymbolTable`.  The
  compiled rule kernels (:mod:`repro.engine.kernels`) join over these
  int columns: probe keys are ints or int tuples, equality checks are
  int comparisons, and no term object is touched until a full match
  materializes.

Single-column constant lookups go through an id-keyed
``(position, id)`` index per predicate; multi-column hash joins probe
lazily built **composite** indexes (:meth:`index_on`) whose buckets hold
row numbers keyed by id (bare int for one position, int tuples
otherwise), maintained incrementally by :meth:`add`.

Every fact also carries its global *sequence number*
(:meth:`Database.sequence`, reverse-mapped by :meth:`fact_at`): its rank
by insertion, or after :meth:`reorder` in the order a fresh chase would
have inserted it in.  The planned strategy sorts hash-join output by the
sequence tuple of the matched body facts, which reproduces the naive
engine's depth-first enumeration order exactly and keeps derived facts
and provenance byte-identical across strategies.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from ..datalog.atoms import Atom, Fact
from ..datalog.errors import ArityError
from ..datalog.terms import Constant, Null, Variable
from ..datalog.unify import MutableSubstitution, Substitution, match_atom
from .symbols import SymbolTable

#: An empty candidate sequence, shared so misses allocate nothing.
_EMPTY: tuple[Fact, ...] = ()
#: Empty column/row views for predicates with no facts yet.
_NO_COLUMNS: tuple[list[int], ...] = ()
_NO_ROWS: Sequence[int] = ()


class Database:
    """A mutable set of facts with row- and column-oriented indexes."""

    def __init__(
        self, facts: Iterable[Fact] = (), symbols: SymbolTable | None = None
    ):
        #: Term interning dictionary; shared (never copied) across
        #: :meth:`copy` so related databases agree on every encoding.
        self._symbols = symbols if symbols is not None else SymbolTable()
        # Insertion-ordered; the value is the fact's sequence number.
        self._facts: dict[Fact, int] = {}
        self._by_predicate: dict[str, list[Fact]] = {}
        # Column store: predicate -> one id list per argument position,
        # row-aligned with the _by_predicate fact lists.
        self._columns: dict[str, tuple[list[int], ...]] = {}
        # Row-aligned global sequence numbers per predicate.
        self._row_seq: dict[str, list[int]] = {}
        # predicate -> (position, id) -> facts, in sequence order.
        self._by_position: dict[str, dict[tuple[int, int], list[Fact]]] = {}
        # Composite indexes: predicate -> positions -> id key -> rows.
        # Built on first use (index_on) and maintained incrementally by add.
        self._composite: dict[
            str, dict[tuple[int, ...], dict[object, list[int]]]
        ] = {}
        # Memoized tuples handed out by facts(); invalidated per predicate.
        self._facts_cache: dict[str | None, tuple[Fact, ...]] = {}
        self._arities: dict[str, int] = {}
        # Predicates whose row stores are shared with a copy (see copy()),
        # and per owned predicate the position lists still shared.
        self._shared: set[str] = set()
        self._borrowed: dict[str, set[tuple[int, int]]] = {}
        for current in facts:
            self.add(current)

    @property
    def symbols(self) -> SymbolTable:
        """The interning table encoding this database's columns."""
        return self._symbols

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, new_fact: Fact) -> bool:
        """Insert a fact; returns ``True`` iff it was not already present."""
        if not new_fact.is_fact():
            raise ArityError(f"cannot store non-ground atom {new_fact}")
        predicate = new_fact.predicate
        known_arity = self._arities.get(predicate)
        if known_arity is None:
            self._arities[predicate] = new_fact.arity
        elif known_arity != new_fact.arity:
            raise ArityError(
                f"predicate {predicate} used with arity "
                f"{new_fact.arity}, expected {known_arity}"
            )
        if new_fact in self._facts:
            return False
        if predicate in self._shared:
            self._own(predicate)
        sequence = len(self._facts)
        self._facts[new_fact] = sequence
        rows = self._by_predicate.get(predicate)
        if rows is None:
            rows = self._by_predicate[predicate] = []
            self._columns[predicate] = tuple(
                [] for _ in range(new_fact.arity)
            )
            self._row_seq[predicate] = []
            self._by_position[predicate] = {}
        row = len(rows)
        rows.append(new_fact)
        self._row_seq[predicate].append(sequence)
        intern = self._symbols.intern
        ids = tuple(intern(term) for term in new_fact.terms)
        columns = self._columns[predicate]
        by_position = self._by_position[predicate]
        borrowed = self._borrowed.get(predicate)
        for position, symbol_id in enumerate(ids):
            columns[position].append(symbol_id)
            key = (position, symbol_id)
            bucket = by_position.get(key)
            if bucket is None:
                by_position[key] = [new_fact]
            elif borrowed and key in borrowed:
                borrowed.discard(key)
                by_position[key] = bucket + [new_fact]
            else:
                bucket.append(new_fact)
        composite = self._composite.get(predicate)
        if composite:
            for positions, buckets in composite.items():
                if len(positions) == 1:
                    bucket_key: object = ids[positions[0]]
                else:
                    bucket_key = tuple(ids[p] for p in positions)
                buckets.setdefault(bucket_key, []).append(row)
        if self._facts_cache:
            self._facts_cache.pop(predicate, None)
            self._facts_cache.pop(None, None)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns how many were new."""
        return sum(1 for current in facts if self.add(current))

    def _own(self, predicate: str) -> None:
        """Copy a shared predicate's stores (position lists one at a
        time, on their first append; composite indexes are dropped)."""
        self._shared.discard(predicate)
        self._by_predicate[predicate] = list(self._by_predicate[predicate])
        self._columns[predicate] = tuple(
            list(column) for column in self._columns[predicate]
        )
        self._row_seq[predicate] = list(self._row_seq[predicate])
        by_position = self._by_position[predicate] = dict(
            self._by_position[predicate]
        )
        self._borrowed[predicate] = set(by_position)
        self._composite.pop(predicate, None)  # shared ones rebuild lazily

    def reorder(self, order: Sequence[int], moved: Iterable[Fact]) -> None:
        """Renumber the instance in place: ``order`` lists the current
        sequence numbers of the facts that stay, in their new order.

        ``moved`` names every stored fact added, dropped or ranked anew;
        the others keep their relative order, so only the rows of the
        predicates ``moved`` touches are re-sorted.  A maintained
        instance then enumerates exactly like a fresh one.
        """
        stored = tuple(self._facts)
        remap = [-1] * len(stored)
        for new, old in enumerate(order):
            remap[old] = new
        facts = self._facts = dict(
            zip(map(stored.__getitem__, order), range(len(order)))
        )
        rank = facts.__getitem__
        shifted_by: dict[str, set[Fact]] = {}
        for current in moved:
            shifted_by.setdefault(current.predicate, set()).add(current)
        for predicate in list(self._by_predicate):
            sequences = [remap[old] for old in self._row_seq[predicate]]
            shifted = shifted_by.get(predicate)
            if not shifted:
                self._row_seq[predicate] = sequences
                continue
            if predicate in self._shared:
                self._own(predicate)
            place = sorted(
                (row for row, new in enumerate(sequences) if new >= 0),
                key=sequences.__getitem__,
            )
            if not place:
                for store in (
                    self._by_predicate, self._columns, self._row_seq,
                    self._by_position, self._arities, self._composite,
                    self._borrowed,
                ):
                    store.pop(predicate, None)
                continue
            old_rows = self._by_predicate[predicate]
            self._by_predicate[predicate] = [old_rows[row] for row in place]
            self._row_seq[predicate] = [sequences[row] for row in place]
            self._columns[predicate] = tuple(
                [column[row] for row in place]
                for column in self._columns[predicate]
            )
            new_row = [-1] * len(old_rows)
            for row, old in enumerate(place):
                new_row[old] = row
            composite = self._composite.get(predicate)
            if composite:
                self._composite[predicate] = {
                    positions: {
                        bucket_key: [
                            new_row[row] for row in bucket if new_row[row] >= 0
                        ]
                        for bucket_key, bucket in buckets.items()
                    }
                    for positions, buckets in composite.items()
                }
            by_position = self._by_position[predicate]
            borrowed = self._borrowed.setdefault(predicate, set())
            for position_key in {
                (position, self._symbols.lookup(term))
                for current in shifted
                for position, term in enumerate(current.terms)
            }:
                borrowed.discard(position_key)
                kept = sorted(
                    (f for f in by_position.get(position_key, ()) if f in facts),
                    key=rank,
                )
                if kept:
                    by_position[position_key] = kept
                else:
                    by_position.pop(position_key, None)
        self._facts_cache = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, item: Fact) -> bool:
        return item in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def predicates(self) -> frozenset[str]:
        return frozenset(self._by_predicate)

    def arity(self, predicate: str) -> int | None:
        """The arity ``predicate`` is stored at, or ``None`` if this
        instance never held a fact of it."""
        return self._arities.get(predicate)

    def facts(self, predicate: str | None = None) -> tuple[Fact, ...]:
        """All facts, or the facts of one predicate, in insertion order.

        The returned tuple is memoized until the next :meth:`add` touching
        the predicate, so repeated calls in the chase hot loop do not copy
        the underlying index lists.
        """
        cached = self._facts_cache.get(predicate)
        if cached is None:
            if predicate is None:
                cached = tuple(self._facts)
            else:
                cached = tuple(self._by_predicate.get(predicate, _EMPTY))
            self._facts_cache[predicate] = cached
        return cached

    def count(self, predicate: str) -> int:
        return len(self._by_predicate.get(predicate, _EMPTY))

    def sequence(self, current: Fact) -> int:
        """The global insertion rank of a stored fact (0-based).

        Candidate lists of every index enumerate facts in increasing
        sequence order, which is what makes sequence-tuple sorting
        reproduce naive enumeration order (see module docstring).
        """
        return self._facts[current]

    def fact_at(self, sequence: int) -> Fact:
        """The stored fact with the given sequence number (the inverse of
        :meth:`sequence`)."""
        return self.facts()[sequence]

    def location(self, current: Fact) -> tuple[str, int]:
        """``(predicate, row)`` of a stored fact in the column store (rows
        are in sequence order)."""
        predicate = current.predicate
        return predicate, bisect_left(
            self._row_seq[predicate], self._facts[current]
        )

    # ------------------------------------------------------------------
    # Columnar views (read-only, live — used by the compiled kernels)
    # ------------------------------------------------------------------
    def columns(self, predicate: str) -> tuple[list[int], ...]:
        """The id columns of a predicate, one list per argument position.

        Live views: they grow in place on :meth:`add` until the first
        write after a :meth:`copy` gives the predicate its own lists.
        Never mutate them.
        """
        return self._columns.get(predicate, _NO_COLUMNS)

    def rows(self, predicate: str) -> Sequence[Fact]:
        """The row-aligned fact list of a predicate (live, read-only)."""
        return self._by_predicate.get(predicate, _EMPTY)

    def row_sequences(self, predicate: str) -> Sequence[int]:
        """Row-aligned global sequence numbers (live, read-only)."""
        return self._row_seq.get(predicate, _NO_ROWS)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def candidates(self, pattern: Atom, binding: Substitution) -> Sequence[Fact]:
        """Facts that could match ``pattern`` under ``binding``.

        Uses the most selective constant-position index available; falls
        back to the predicate index.  Constants resolve through the
        symbol table first — a value that was never interned cannot occur
        in any stored fact, so the miss is decided without touching an
        index.  Returns a live read-only view of the stored index list —
        callers must not mutate it, and must finish iterating before
        adding facts.
        """
        best: Sequence[Fact] | None = None
        lookup = self._symbols.lookup
        by_position = self._by_position.get(pattern.predicate)
        if by_position is None:
            return _EMPTY
        for position, term in enumerate(pattern.terms):
            if isinstance(term, Variable):
                term = binding.get(term, term)
            if isinstance(term, (Constant, Null)):
                symbol_id = lookup(term)
                if symbol_id is None:
                    return _EMPTY
                indexed = by_position.get((position, symbol_id))
                if indexed is None:
                    return _EMPTY
                if best is None or len(indexed) < len(best):
                    best = indexed
        if best is not None:
            return best
        return self._by_predicate.get(pattern.predicate, _EMPTY)

    def index_on(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[object, list[int]]:
        """The composite hash index of ``predicate`` keyed on ``positions``.

        Keys are interned ids — the bare id for a single position, an id
        tuple otherwise; values are row numbers into ``rows(predicate)``
        (ascending, unless :meth:`reorder` moved rows; kernels sort their
        output, so bucket order never shows).  Built from the current columns on first use
        and maintained incrementally by :meth:`add` afterwards.
        ``positions`` must be strictly increasing.
        """
        composite = self._composite.setdefault(predicate, {})
        buckets = composite.get(positions)
        if buckets is None:
            buckets = {}
            columns = self._columns.get(predicate)
            if columns:
                if len(positions) == 1:
                    for row, symbol_id in enumerate(columns[positions[0]]):
                        buckets.setdefault(symbol_id, []).append(row)
                else:
                    selected = tuple(columns[p] for p in positions)
                    for row in range(len(selected[0])):
                        key = tuple(column[row] for column in selected)
                        buckets.setdefault(key, []).append(row)
            composite[positions] = buckets
        return buckets

    def composite_index_count(self) -> int:
        """How many composite indexes are currently materialized."""
        return sum(len(by_positions) for by_positions in self._composite.values())

    def match(
        self,
        pattern: Atom,
        binding: Substitution | None = None,
        exclude: frozenset[Fact] | None = None,
    ) -> Iterator[tuple[Fact, MutableSubstitution]]:
        """Yield ``(fact, extended_binding)`` for every fact matching
        ``pattern`` under ``binding``, skipping facts in ``exclude``."""
        base: Substitution = binding if binding is not None else {}
        for candidate in self.candidates(pattern, base):
            if exclude is not None and candidate in exclude:
                continue
            extended = match_atom(pattern, candidate, base)
            if extended is not None:
                yield candidate, extended

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def copy(self, indexes: bool = False) -> "Database":
        """An independent copy of this database, copy-on-write.

        Both share every predicate's stores until one adds a fact to it,
        which copies that predicate's lists first (:meth:`_own`).  The
        symbol table is shared for good: it is append-only.  Composite
        indexes and memoized fact tuples are caches the copy rebuilds on
        demand, unless ``indexes`` shares the indexes copy-on-write too
        (an incremental update, which writes to few predicates, does).
        """
        clone = Database.__new__(Database)
        clone._symbols = self._symbols
        clone._facts = dict(self._facts)
        clone._by_predicate = dict(self._by_predicate)
        clone._columns = dict(self._columns)
        clone._row_seq = dict(self._row_seq)
        clone._by_position = dict(self._by_position)
        clone._composite = (
            {
                predicate: dict(by_positions)
                for predicate, by_positions in self._composite.items()
            }
            if indexes else {}
        )
        clone._facts_cache = {}
        clone._arities = dict(self._arities)
        clone._borrowed = {}
        self._shared.update(self._by_predicate)
        clone._shared = set(self._by_predicate)
        return clone

    def describe(self, limit: int | None = None) -> str:
        """Human-readable listing, optionally truncated to ``limit`` facts."""
        listed = list(self._facts)
        truncated = limit is not None and len(listed) > limit
        if truncated:
            listed = listed[:limit]
        lines = [f"Database with {len(self._facts)} facts:"]
        lines.extend(f"  {current}" for current in listed)
        if truncated:
            lines.append(f"  ... ({len(self._facts) - len(listed)} more)")
        return "\n".join(lines)
