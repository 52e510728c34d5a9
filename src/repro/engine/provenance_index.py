"""The provenance index: record-once, serve-many chase provenance.

With compilation and the chase both fast, repeated ``explain()`` calls
spend their time re-walking the chase graph: every query re-extracts its
derivation spine fact by fact, re-filters intensional parents, re-walks
the proof DAG for constants.  The provenance-graph literature (Lee et al.,
"Efficiently Computing Provenance Graphs for Queries with Negation") and
the Vadalog system paper both arrive at the same shape: *materialize an
indexed provenance structure once per chase, then answer many queries
against it*.

:class:`ProvenanceIndex` is that structure.  Built in a single pass over
the :class:`~repro.engine.chase.ChaseResult` records (parents always
precede children in record order, so depths need no recursion), it
provides O(1) access to

* the deriving step of a fact (``record``) and its precomputed
  *intensional* parents (``intensional_parents`` — the filter the spine
  walk and side-branch absorption used to redo per visit);
* reverse adjacency (``children`` — every step consuming a fact, the
  chase result's own map, shared);
* per-predicate derivation buckets (``records_for_predicate``);
* derivation depth (``depth``);
* interned fact keys (``fact_key``) — stable strings shared across
  memoization layers so cache keys compare by identity;

plus per-fact memoized views shared by all queries of a session:
derivation spines (``spine``) and proof DAGs (``proof_records``,
``proof_constants``).

The index is the one production implementation of these queries.  Every
answer is identical to the unindexed reference walks of
:class:`~repro.engine.provenance.ProvenanceTracker`, which serves only as
the test oracle (``tests/test_explain_serving.py`` asserts the parity).
One index is built per chase session — see ``ReasoningResult.index`` —
and rebound, not rebuilt, when an update re-reasons over new data: the
rebind patches only the update's forward closure.
"""

from __future__ import annotations

import sys
import threading
import time

from .. import obs
from ..datalog.atoms import Fact
from ..datalog.errors import NotDerived
from .chase import ChaseResult, ChaseStepRecord
from .provenance import DerivationSpine, SpineStep


class ProvenanceIndex:
    """Indexed provenance over one materialized chase result."""

    def __init__(self, result: ChaseResult):
        started = time.perf_counter()
        with obs.phase("explain.index_build"):
            self.result = result
            self._build(result)
        self.build_seconds = time.perf_counter() - started
        obs.observe("explain.index_build_s", self.build_seconds)

    def _build(self, result: ChaseResult) -> None:
        self._intensional = result.program.intensional_predicates()
        self._parents: dict[Fact, tuple[Fact, ...]] = {}
        self._depth: dict[Fact, int] = {}
        self._bind(result, result.records)
        # Memoized per-fact views, shared by every query of the session.
        self._keys: dict[Fact, str] = {}
        self._spines: dict[Fact, DerivationSpine] = {}
        self._proofs: dict[Fact, tuple[ChaseStepRecord, ...]] = {}
        self._proof_constants: dict[Fact, tuple[str, ...]] = {}
        self._lock = threading.Lock()

    def _bind(self, result: ChaseResult, records) -> None:
        """Point at ``result`` and index ``records`` (canonical order).

        Every parent of a record was materialized before it fired, so one
        forward pass computes intensional-parent tuples and depths
        without recursion.
        """
        derivation = self._derivation = result.derivation
        self._sequence = result.database.sequence
        self._children = result.children()
        intensional, parents, depth = self._intensional, self._parents, self._depth
        for record in records:
            intensional_parents = parents[record.fact] = tuple(
                parent for parent in record.parents
                if parent.predicate in intensional and parent in derivation
            )
            depth[record.fact] = 1 + max(
                (depth[parent] for parent in intensional_parents), default=0
            )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def rebind(self, new_result: ChaseResult, touched: frozenset[Fact]) -> dict:
        """Re-point the index at an incrementally updated chase result.

        Only the forward closure of ``touched`` (the update's changed
        facts, :attr:`~repro.engine.incremental.UpdateOutcome.touched`)
        can differ: its parents and depths are recomputed, and every
        memo — spines, proof DAGs, constants, keys — outside it is kept.
        Returns invalidation figures for stats documents.

        Readers keep inserting into the old memo dicts, so they are read
        under the old lock.  Rebinding a ``copy.copy`` of an index leaves
        the original whole for the readers still holding it (see
        :meth:`~repro.engine.reasoning.ReasoningResult.updated`).
        """
        started = time.perf_counter()
        with obs.phase("explain.index_rebind"):
            self.result = new_result
            closure = set(touched)
            frontier = list(touched)
            while frontier:
                for record in new_result.children().get(frontier.pop(), ()):
                    if record.fact not in closure:
                        closure.add(record.fact)
                        frontier.append(record.fact)
            self._parents, self._depth = dict(self._parents), dict(self._depth)
            for fact in closure:
                self._parents.pop(fact, None)
                self._depth.pop(fact, None)
            sequence = new_result.database.sequence
            self._bind(new_result, sorted(
                (new_result.derivation[f] for f in closure
                 if f in new_result.derivation),
                key=lambda record: sequence(record.fact),
            ))
            with self._lock:  # ``touched`` holds every fact that went
                memos = [dict(memo) for memo in (
                    self._keys, self._spines, self._proofs,
                    self._proof_constants,
                )]
            for memo in memos:
                for fact in closure:
                    memo.pop(fact, None)
            self._keys, self._spines, self._proofs, self._proof_constants = memos
            self._lock = threading.Lock()
        self.build_seconds = time.perf_counter() - started
        return {
            "touched": len(closure),
            "spines_retained": len(self._spines),
            "proofs_retained": len(self._proofs),
        }

    # ------------------------------------------------------------------
    # O(1) lookups
    # ------------------------------------------------------------------
    def is_derived(self, current: Fact) -> bool:
        return current in self._derivation

    def record(self, current: Fact) -> ChaseStepRecord:
        """The chase step deriving ``current``; raises for EDB facts."""
        record = self._derivation.get(current)
        if record is None:
            raise NotDerived(current)
        return record

    def intensional_parents(self, record: ChaseStepRecord) -> tuple[Fact, ...]:
        """The record's parents that are themselves derived (precomputed)."""
        return self._parents.get(record.fact, ())

    def children(self, current: Fact) -> tuple[ChaseStepRecord, ...]:
        """Every chase step that consumed ``current`` (reverse adjacency)."""
        return tuple(self._children.get(current, ()))

    def records_for_predicate(self, predicate: str) -> tuple[ChaseStepRecord, ...]:
        """All derivation steps producing ``predicate`` facts, in order."""
        return tuple(
            r for r in self.result.records if r.fact.predicate == predicate
        )

    def depth(self, current: Fact) -> int:
        """Length of the longest derivation chain below ``current``
        (0 for extensional facts)."""
        return self._depth.get(current, 0)

    def fact_key(self, current: Fact) -> str:
        """An interned string key for ``current``.

        Memoization layers key cache entries by these so equal facts of
        the same session share one string object and key comparisons
        short-circuit on identity.
        """
        key = self._keys.get(current)
        if key is None:
            key = sys.intern(str(current))
            with self._lock:
                key = self._keys.setdefault(current, key)
        return key

    # ------------------------------------------------------------------
    # Memoized derivation spines
    # ------------------------------------------------------------------
    def spine(self, target: Fact) -> DerivationSpine:
        """The root-to-leaf derivation path for ``target``, memoized.

        Identical to :meth:`ProvenanceTracker.spine` (same deepest-parent
        tie-breaks), but each fact's spine is extracted once per session.
        """
        cached = self._spines.get(target)
        if cached is not None:
            return cached
        if target not in self._derivation:
            raise NotDerived(target)
        reversed_steps: list[SpineStep] = []
        current: Fact | None = target
        while current is not None:
            record = self._derivation[current]
            parents = self._parents.get(record.fact, ())
            if parents:
                depth = self._depth
                spine_parent = max(
                    parents,
                    key=lambda p: (depth[p], -record.parents.index(p)),
                )
                side = tuple(
                    self._derivation[p].rule_label
                    for p in parents if p != spine_parent
                )
            else:
                spine_parent = None
                side = ()
            reversed_steps.append(
                SpineStep(
                    record=record,
                    spine_parent=spine_parent,
                    side_rules=side,
                    multi_contributor=record.multi_contributor,
                )
            )
            current = spine_parent
        spine = DerivationSpine(
            target=target, steps=tuple(reversed(reversed_steps))
        )
        with self._lock:
            return self._spines.setdefault(target, spine)

    # ------------------------------------------------------------------
    # Memoized proof DAGs
    # ------------------------------------------------------------------
    def proof_records(self, target: Fact) -> tuple[ChaseStepRecord, ...]:
        """All chase steps in the proof of ``target``, in chase order."""
        cached = self._proofs.get(target)
        if cached is not None:
            return cached
        collected: dict[Fact, ChaseStepRecord] = {}
        frontier = [target]
        while frontier:
            current = frontier.pop()
            record = self._derivation.get(current)
            if record is None or current in collected:
                continue
            collected[current] = record
            frontier.extend(record.parents)
        proof = tuple(
            collected[fact] for fact in sorted(collected, key=self._sequence)
        )
        with self._lock:
            return self._proofs.setdefault(target, proof)

    def proof_size(self, target: Fact) -> int:
        return len(self.proof_records(target))

    def proof_constants(self, target: Fact) -> tuple[str, ...]:
        """The distinct constants in the proof of ``target`` (the ground
        truth of the completeness checks), memoized per fact."""
        cached = self._proof_constants.get(target)
        if cached is not None:
            return cached
        seen: dict[str, None] = {}
        for record in self.proof_records(target):
            for parent in record.parents:
                for constant in parent.constants():
                    seen.setdefault(str(constant), None)
            for constant in record.fact.constants():
                seen.setdefault(str(constant), None)
        constants = tuple(seen)
        with self._lock:
            return self._proof_constants.setdefault(target, constants)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Size and build-cost figures for stats documents and tests."""
        with self._lock:
            return {
                "records": len(self.result.records),
                "build_s": self.build_seconds,
                "spines_memoized": len(self._spines),
                "proofs_memoized": len(self._proofs),
                "interned_keys": len(self._keys),
            }

    def __len__(self) -> int:
        return len(self.result.records)
