"""Spans around the program's public callables, recorded from outside.

Nothing under ``src/`` knows about this file.  Inside the child process
that ``server_main.py`` starts, :func:`install` replaces the attribute
that holds each callable of :data:`TARGETS` — on the class, or on every
``repro`` module that imported the function — with a wrapper that records
``{pid, id, parent, op, layer, name, start, end}`` on the monotonic clock
(system-wide on Linux, so client and server spans share one time line).
Spans stay in memory and are written as JSON lines at shutdown.

The second half of the file is the arithmetic on recorded spans: joining
client and server spans of one request on the ``X-Query-Id`` header,
self time (a span's duration minus the part its children cover) and the
per-layer table the traced run prints.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Iterable

#: (module, class or None, attribute, layer, span name).  The layer is
#: the module's name under ``src/repro``; ``ChaseEngine.update`` is filed
#: under ``engine.incremental``, the module that does its work.
TARGETS: tuple[tuple[str, str | None, str, str, str], ...] = (
    ("repro.io", None, "loads_database", "io", "loads_database"),
    ("repro.io", None, "dumps_database", "io", "dumps_database"),
    ("repro.core.compiler", None, "compile_program",
     "core.compiler", "compile_program"),
    ("repro.engine.planner", None, "plan_rule", "engine.planner", "plan_rule"),
    ("repro.engine.kernels", None, "compile_rule_kernel",
     "engine.kernels", "compile_rule_kernel"),
    ("repro.engine.kernels", "RuleKernel", "execute",
     "engine.kernels", "execute"),
    ("repro.engine.chase", "ChaseEngine", "run", "engine.chase", "run"),
    ("repro.engine.chase", "ChaseEngine", "update",
     "engine.incremental", "update"),
    ("repro.engine.provenance_index", "ProvenanceIndex", "__init__",
     "engine.provenance_index", "build"),
    ("repro.engine.provenance_index", "ProvenanceIndex", "rebind",
     "engine.provenance_index", "rebind"),
    ("repro.engine.provenance_index", "ProvenanceIndex", "spine",
     "engine.provenance_index", "spine"),
    ("repro.core.service", "ExplanationSession", "explain",
     "core.service", "session_explain"),
    ("repro.core.service", "ExplanationSession", "explain_batch",
     "core.service", "session_explain_batch"),
    ("repro.core.service", "ExplanationSession", "why_not",
     "core.service", "session_why_not"),
    ("repro.core.service", "ExplanationSession", "update",
     "core.service", "session_update"),
    ("repro.core.explain", "Explainer", "explain", "core.explain", "explain"),
    ("repro.core.mapping", "TemplateMapper", "map_spine",
     "core.mapping", "map_spine"),
    ("repro.core.whynot", "WhyNotExplainer", "explain_why_not",
     "core.whynot", "explain_why_not"),
    ("repro.serve.protocol", None, "parse_explain_request",
     "serve.protocol", "parse"),
    ("repro.serve.protocol", None, "parse_batch_request",
     "serve.protocol", "parse"),
    ("repro.serve.protocol", None, "parse_whynot_request",
     "serve.protocol", "parse"),
    ("repro.serve.protocol", None, "parse_update_request",
     "serve.protocol", "parse"),
    ("repro.serve.protocol", None, "encode_body", "serve.protocol", "encode"),
    ("repro.serve.admission", "AdmissionController", "admit",
     "serve.admission", "admit"),
    ("repro.serve.workers", "WorkerPool", "serve", "serve.workers", "serve"),
    ("repro.serve.workers", "WorkerPool", "run", "serve.workers", "run"),
    ("repro.serve.workers", "WorkerPool", "update",
     "serve.workers", "pool_update"),
    ("repro.serve.routes", None, "serve_session_request",
     "serve.routes", "serve_session_request"),
)


def _explained_steps(explanation) -> int:
    """Chase steps an explanation covers: its spine plus, recursively,
    its side branches (the proof size, without asking the index)."""
    return len(explanation.spine.steps) + sum(
        _explained_steps(side) for side in explanation.side_explanations
    )


#: span name -> attributes read off the call's result, after the clock
#: stopped.  They carry the counts the per-layer metrics need.
_RESULT_ATTRS: dict[tuple[str, str], Callable[[object], dict]] = {
    ("io", "loads_database"): lambda db: {"facts": len(db)},
    ("engine.chase", "run"): lambda result: {
        "derived": result.stats.facts_derived, "rounds": result.rounds,
    },
    ("engine.incremental", "update"): lambda outcome: {
        "mode": outcome.mode, "replayed": outcome.replayed,
    },
    ("serve.protocol", "encode"): lambda body: {"bytes": len(body)},
    ("core.explain", "explain"): lambda explanation: {
        "steps": _explained_steps(explanation),
    },
}


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # explain_batch fans out to the service's thread pool, where the
        # per-thread stack is empty: the batch span is found again through
        # the Explainer both sides hold.
        self._batches: dict[int, tuple[int, str | None]] = {}

    def _stack(self) -> list[tuple[int, str | None]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(
        self, layer: str, name: str, op: str | None = None,
        parent: int | None = None,
    ) -> dict:
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1]
            op = op or inherited
        span = {
            "pid": self.pid, "id": next(self._ids), "parent": parent,
            "op": op, "layer": layer, "name": name,
            "start": time.perf_counter(), "end": 0.0,
        }
        stack.append((span["id"], op))
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)       # list.append is atomic under the GIL

    def add(
        self, layer: str, name: str, start: float, end: float,
        op: str | None = None, **attrs: object,
    ) -> dict:
        """Record a span whose clock the caller ran (client side)."""
        span = {
            "pid": self.pid, "id": next(self._ids), "parent": None,
            "op": op, "layer": layer, "name": name,
            "start": start, "end": end, **attrs,
        }
        self.spans.append(span)
        return span

    def wrap(self, original: Callable, layer: str, name: str) -> Callable:
        begin, end = self.begin, self.end
        attrs = _RESULT_ATTRS.get((layer, name))
        batches = self._batches

        if (layer, name) == ("serve.workers", "serve"):
            # The flight record the server opened for this request carries
            # the id it will send back as X-Query-Id.
            def wrapper(*args, **kwargs):
                record = kwargs.get("record")
                span = begin(layer, name, op=getattr(record, "query_id", None))
                try:
                    return original(*args, **kwargs)
                finally:
                    end(span)
        elif (layer, name) == ("core.service", "session_explain_batch"):
            def wrapper(session, *args, **kwargs):
                span = begin(layer, name)
                batches[id(session.explainer)] = (span["id"], span["op"])
                try:
                    return original(session, *args, **kwargs)
                finally:
                    batches.pop(id(session.explainer), None)
                    end(span)
        elif (layer, name) == ("core.explain", "explain"):
            def wrapper(explainer, *args, **kwargs):
                parent, op = batches.get(id(explainer), (None, None))
                span = begin(layer, name, op=op, parent=parent)
                try:
                    result = original(explainer, *args, **kwargs)
                except BaseException:
                    end(span)
                    raise
                end(span)
                span.update(attrs(result))
                return result
        elif attrs is not None:
            def wrapper(*args, **kwargs):
                span = begin(layer, name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    end(span)
                    raise
                end(span)
                span.update(attrs(result))
                return result
        else:
            def wrapper(*args, **kwargs):
                span = begin(layer, name)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(span)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Installing and restoring the wrappers
# ----------------------------------------------------------------------

def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every callable of :data:`TARGETS`; returns what
    :func:`restore` needs to put every attribute back."""
    replaced: list[tuple[object, str, object]] = []

    def swap(holder: object, key: str, new: object) -> None:
        if isinstance(holder, dict):
            replaced.append((holder, key, holder[key]))
            holder[key] = new
        else:
            replaced.append((holder, key, vars(holder)[key]))
            setattr(holder, key, new)

    functions: dict[int, object] = {}     # id(original) -> wrapper
    for module_name, class_name, attribute, layer, name in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            swap(owner, attribute,
                 recorder.wrap(vars(owner)[attribute], layer, name))
            continue
        original = getattr(module, attribute)
        wrapped = functions[id(original)] = recorder.wrap(
            original, layer, name
        )
        # ``from .protocol import encode_body`` binds the function in the
        # importing module too: replace every such binding.
        for other_name, other in list(sys.modules.items()):
            if other is not None and other_name.startswith("repro"):
                if vars(other).get(attribute) is original:
                    swap(other, attribute, wrapped)
    # The route table holds the parsers by value.
    parsers = importlib.import_module("repro.serve.routes").PARSERS
    for route, parser in list(parsers.items()):
        if id(parser) in functions:
            swap(parsers, route, functions[id(parser)])
    return replaced


def restore(replaced: list[tuple[object, str, object]]) -> None:
    for holder, key, original in reversed(replaced):
        if isinstance(holder, dict):
            holder[key] = original
        else:
            setattr(holder, key, original)
    replaced.clear()


# ----------------------------------------------------------------------
# Arithmetic on recorded spans
# ----------------------------------------------------------------------

#: What a root span's own time is called in the tables: the part of a
#: client-observed request the server spent outside ``WorkerPool.serve``
#: (socket, HTTP framing, admission, the asyncio-to-executor hop, the
#: response write), and the part of a boot outside ``server_main``.
ROOT_ROWS = {"request": "serve.server.overhead", "boot": "bench.spawn"}


def link(spans: Iterable[dict]) -> list[dict]:
    """Key every span by ``(pid, id)`` and hang each server-side root
    that shares an ``op`` with a client span under that client span."""
    linked = [dict(span) for span in spans]
    clients = {
        span["op"]: span for span in linked
        if span["layer"] == "bench" and span["name"] in ROOT_ROWS
        and span["op"] is not None
    }
    for span in linked:
        span["key"] = (span["pid"], span["id"])
        if span["parent"] is not None:
            span["up"] = (span["pid"], span["parent"])
        else:
            client = clients.get(span["op"])
            joins = client is not None and client is not span
            span["up"] = (client["pid"], client["id"]) if joins else None
    return linked


def self_times(linked: list[dict]) -> dict[tuple[int, int], float]:
    """Self time per span, in seconds of its root's wall clock.

    A span's self time is its duration minus the union of the parts its
    children cover.  Children may overlap — a batch fans out over two
    threads that take turns on the interpreter lock — and then the time
    they cover together is shared out among them in proportion to their
    durations, so that the self times below any span still add up to
    that span's duration and never to more.
    """
    children: dict[tuple[int, int], list[dict]] = {}
    for span in linked:
        if span["up"] is not None:
            children.setdefault(span["up"], []).append(span)
    result: dict[tuple[int, int], float] = {}
    present = {span["key"] for span in linked}
    pending = [
        (span, 1.0) for span in linked
        if span["up"] is None or span["up"] not in present
    ]
    while pending:
        span, weight = pending.pop()
        start, end = span["start"], span["end"]
        below = sorted(children.get(span["key"], ()), key=lambda c: c["start"])
        covered = claimed = 0.0
        cursor = start
        for child in below:
            claimed += max(0.0, min(child["end"], end) - max(child["start"], start))
            low = max(child["start"], cursor)
            high = min(child["end"], end)
            if high > low:
                covered += high - low
                cursor = high
        result[span["key"]] = ((end - start) - covered) * weight
        share = weight * (covered / claimed) if claimed else weight
        pending.extend((child, share) for child in below)
    return result


def within(linked: list[dict], start: float, end: float) -> list[dict]:
    """The spans that began inside ``[start, end)``."""
    return [span for span in linked if start <= span["start"] < end]


def by_name(
    scoped: list[dict], selfs: dict[tuple[int, int], float]
) -> dict[str, dict]:
    """``layer.name`` -> calls, self seconds, total seconds, spans."""
    table: dict[str, dict] = {}
    for span in scoped:
        name = f"{span['layer']}.{span['name']}"
        if span["layer"] == "bench" and span["name"] in ROOT_ROWS:
            name = ROOT_ROWS[span["name"]]
        row = table.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "spans": []}
        )
        row["calls"] += 1
        row["self_s"] += selfs[span["key"]]
        row["total_s"] += span["end"] - span["start"]
        row["spans"].append(span)
    return table


def waterfall(
    scoped: list[dict], selfs: dict[tuple[int, int], float]
) -> tuple[str, float]:
    """The per-layer table of one scope and its unattributed share.

    Root spans are the client's (``bench.request``, ``bench.boot``).  The
    rows are the self times of the roots and of every span below them, so
    they add up to the roots' total; a root no server span joined has no
    rows below it, and its whole duration is unattributed.  Spans of the
    event-loop thread (admission, response encoding) carry no request id
    and are listed apart: their time is already inside
    ``serve.server.overhead``.
    """
    index = {span["key"]: span for span in scoped}
    joined = {span["up"] for span in scoped if span["up"] is not None}
    roots = [
        span for span in scoped
        if span["layer"] == "bench" and span["name"] in ROOT_ROWS
    ]
    root_keys = {root["key"] for root in roots}
    root_total = sum(root["end"] - root["start"] for root in roots)

    def root_of(span: dict) -> dict | None:
        while span is not None and span["up"] is not None:
            span = index.get(span["up"])
        return span

    below, apart = [], []
    for span in scoped:
        top = root_of(span)
        if top is not None and top["key"] in root_keys:
            if top["key"] in joined:
                below.append(span)
        else:
            apart.append(span)
    lines = [f"  {'layer.span':<46}{'calls':>8}{'self s':>10}{'share':>8}"]
    attributed = 0.0
    for name, row in sorted(
        by_name(below, selfs).items(), key=lambda item: -item[1]["self_s"]
    ):
        attributed += row["self_s"]
        lines.append(
            f"  {name:<46}{row['calls']:>8}{row['self_s']:>10.4f}"
            f"{row['self_s'] / root_total if root_total else 0.0:>8.1%}"
        )
    unattributed = (
        max(0.0, root_total - attributed) / root_total if root_total else 0.0
    )
    lines.append(
        f"  {'bench.unattributed':<46}{'':>8}"
        f"{root_total - attributed:>10.4f}{unattributed:>8.1%}"
    )
    lines.append(f"  {'= root spans':<46}{len(roots):>8}{root_total:>10.4f}")
    for name, row in sorted(by_name(apart, selfs).items()):
        lines.append(
            f"  ({name} apart){'':<{max(0, 38 - len(name))}}"
            f"{row['calls']:>8}{row['self_s']:>10.4f}"
        )
    return "\n".join(lines), unattributed
