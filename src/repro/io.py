"""File formats: programs, fact bases and glossaries on disk.

Three simple formats make the system usable as a tool rather than a
library:

* **program files** (``.vada``) — the textual rule syntax of
  :mod:`repro.datalog.parser`, plus two pragmas in comments::

      % @name company_control
      % @goal Control
      sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).

* **fact files** (``.facts``) — one ground atom per line, same term
  syntax, ``%``/``#`` comments::

      Own(AlphaHolding, VehicleOne, 0.7).
      Company(AlphaHolding).

* **glossary files** (``.json``) — the data dictionary::

      {"Own": {"params": ["x", "y", "s"],
               "text": "<x> owns <s> shares of <y>"}}
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

from .core.glossary import DomainGlossary
from .datalog.atoms import Fact
from .datalog.errors import ParseError, UserError
from .datalog.parser import parse_fact, parse_program
from .datalog.program import Program
from .datalog.terms import Null, Term, intern_constant
from .engine.database import Database
from .engine.symbols import SymbolTable

_PRAGMA_RE = re.compile(r"^[%#]\s*@(name|goal)\s+(\S+)\s*$", re.MULTILINE)


def read_file(path: str | Path, decode: bool = False):
    """A caller's file as text, or decoded from JSON with ``decode``: a
    missing, unreadable or malformed file is a UserError naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if decode else text
    except (OSError, ValueError) as error:
        raise UserError(f"cannot read {path}: {error}") from error


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

def loads_program(
    text: str, name: str | None = None, goal: str | None = None
) -> Program:
    """Parse program text honouring ``@name``/``@goal`` pragmas.

    Explicit arguments override pragmas.
    """
    pragmas = dict(_PRAGMA_RE.findall(text))
    return parse_program(
        text,
        name=name or pragmas.get("name", "program"),
        goal=goal or pragmas.get("goal"),
    )


def load_program(
    path: str | Path, name: str | None = None, goal: str | None = None
) -> Program:
    """Load a program file (see :func:`loads_program`)."""
    return loads_program(read_file(path), name, goal)


# ----------------------------------------------------------------------
# Facts
# ----------------------------------------------------------------------

def loads_facts(text: str) -> Database:
    """Parse a fact file body into a database."""
    database = Database()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        try:
            database.add(parse_fact(line))
        except ParseError as error:
            raise ParseError(
                f"line {line_number}: {error}", text, None
            ) from error
    return database


def load_facts(path: str | Path) -> Database:
    """Load a fact file into a database."""
    return loads_facts(read_file(path))


def save_facts(database: Database | Iterable[Fact], path: str | Path) -> None:
    """Write a database (or any fact iterable) as a fact file."""
    lines = [f"{fact}." for fact in database]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Database snapshots (repro-db/1): facts plus their interned encoding
# ----------------------------------------------------------------------

#: Snapshot format identifier (bump on incompatible layout changes).
DATABASE_SNAPSHOT_FORMAT = "repro-db/1"


def _dump_term(term: Term) -> dict:
    if isinstance(term, Null):
        return {"null": term.label}
    return {"c": term.value}  # type: ignore[union-attr]


def _load_term(payload: dict) -> Term:
    if "null" in payload:
        return Null(int(payload["null"]))
    return intern_constant(payload["c"])


def dumps_database(database: Database) -> str:
    """Serialize a database as a ``repro-db/1`` JSON snapshot.

    The snapshot carries the symbol table (every interned term, in id
    order) and each fact as ``[predicate, [ids]]`` in global insertion
    sequence order, so a warm start rebuilds the *identical* columnar
    encoding: same ids, same insertion sequences, same index contents.

    One normalization caveat: the symbol table maps value-equal terms
    (``1``, ``1.0``, ``True``) to one id, so a snapshot stores only each
    id's canonical term.  Facts mixing value-equal constants of distinct
    types round-trip to the canonical spelling — their ``str()``
    rendering (what fact files and explanations show) is unchanged, as
    ``str(Constant(1.0)) == str(Constant(1)) == "1"``.
    """
    symbols = database.symbols
    payload = {
        "format": DATABASE_SNAPSHOT_FORMAT,
        "symbols": [_dump_term(term) for term in symbols],
        "facts": [
            [current.predicate, [symbols.lookup(t) for t in current.terms]]
            for current in database.facts()
        ],
    }
    return json.dumps(payload, ensure_ascii=False)


def loads_database(text: str) -> Database:
    """Rebuild a database from a ``repro-db/1`` snapshot.

    The symbol table is restored positionally first, then facts are added
    in their original sequence order from the canonical terms — interning
    finds the restored entries, so every id round-trips.
    """
    payload = json.loads(text)
    if payload.get("format") != DATABASE_SNAPSHOT_FORMAT:
        raise ParseError(
            f"not a {DATABASE_SNAPSHOT_FORMAT} snapshot: "
            f"format={payload.get('format')!r}",
            text, 0,
        )
    symbols = SymbolTable.restore(
        _load_term(entry) for entry in payload["symbols"]
    )
    database = Database(symbols=symbols)
    term = symbols.term
    for predicate, ids in payload["facts"]:
        database.add(Fact(predicate, tuple(term(i) for i in ids)))
    return database


def save_database(database: Database, path: str | Path) -> None:
    """Write a ``repro-db/1`` snapshot file."""
    Path(path).write_text(dumps_database(database) + "\n", encoding="utf-8")


def load_database(path: str | Path) -> Database:
    """Load a ``repro-db/1`` snapshot file."""
    return loads_database(read_file(path))


# ----------------------------------------------------------------------
# Compiled programs (warm-start artifacts, see repro.core.compiler)
# ----------------------------------------------------------------------

def save_compiled_program(compiled, path: str | Path) -> None:
    """Persist a :class:`~repro.core.compiler.CompiledProgram`.

    The artifact stores the content hashes, the enhancer configuration
    and the enhanced/review state of every pipeline; the deterministic
    templates are pure functions of program and glossary and are rebuilt
    on load.  A service that loads the artifact skips the LLM
    enhancement entirely (the expensive half of compilation).
    """
    payload = compiled.export_payload()
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_compiled_program(path: str | Path, program, glossary, llm=None):
    """Load a compiled-program artifact saved by
    :func:`save_compiled_program`, validated against the live program and
    glossary (a stale artifact raises
    :class:`~repro.core.compiler.CompilationError`)."""
    from .core.compiler import CompiledProgram

    payload = read_file(path, decode=True)
    return CompiledProgram.from_payload(payload, program, glossary, llm=llm)


# ----------------------------------------------------------------------
# Glossaries
# ----------------------------------------------------------------------

def loads_glossary(text: str) -> DomainGlossary:
    """Parse a JSON data dictionary into a glossary."""
    try:
        raw = json.loads(text)
    except ValueError as error:
        raise ParseError(f"glossary is not valid JSON: {error}") from error
    if not isinstance(raw, dict):
        raise ParseError("glossary JSON must be an object", text, 0)
    glossary = DomainGlossary()
    for predicate, entry in raw.items():
        if not isinstance(entry, dict) or "params" not in entry or "text" not in entry:
            raise ParseError(
                f"glossary entry for {predicate!r} needs 'params' and 'text'",
                text, 0,
            )
        glossary.define(predicate, list(entry["params"]), str(entry["text"]))
    return glossary


def load_glossary(path: str | Path) -> DomainGlossary:
    """Load a JSON glossary file."""
    return loads_glossary(read_file(path))


def dump_glossary(glossary: DomainGlossary, path: str | Path) -> None:
    """Write a glossary as a JSON data dictionary."""
    payload = {
        predicate: {
            "params": list(glossary.entry(predicate).params),
            "text": glossary.entry(predicate).text,
        }
        for predicate in sorted(glossary.predicates())
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
