"""Tests for the file formats (programs, facts, glossaries) and the
file-driven CLI."""

import json

import pytest

from repro.cli import main
from repro.datalog import ParseError, fact
from repro.engine import Database
from repro.io import (
    dump_glossary,
    dumps_database,
    load_database,
    load_facts,
    load_glossary,
    load_program,
    loads_database,
    loads_facts,
    loads_glossary,
    loads_program,
    parse_fact,
    save_database,
    save_facts,
)

PROGRAM_TEXT = """
% @name demo
% @goal Control
sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
"""

GLOSSARY_JSON = json.dumps({
    "Own": {"params": ["x", "y", "s"], "text": "<x> owns <s> of <y>"},
    "Control": {"params": ["x", "y"], "text": "<x> controls <y>"},
})


class TestProgramFiles:
    def test_pragmas_honoured(self):
        program = loads_program(PROGRAM_TEXT)
        assert program.name == "demo"
        assert program.goal == "Control"

    def test_arguments_override_pragmas(self):
        program = loads_program(PROGRAM_TEXT, name="other", goal="Own")
        assert program.name == "other"
        assert program.goal == "Own"

    def test_hash_pragma_supported(self):
        program = loads_program("# @goal Q\nP(x) -> Q(x).")
        assert program.goal == "Q"

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "rules.vada"
        path.write_text(PROGRAM_TEXT)
        assert load_program(path).goal == "Control"


class TestFactFiles:
    def test_parse_fact(self):
        assert parse_fact("Own(A, B, 0.6).") == fact("Own", "A", "B", 0.6)

    def test_parse_fact_quoted_and_numeric(self):
        parsed = parse_fact('Risk(C, 11, "long")')
        assert parsed == fact("Risk", "C", 11, "long")

    def test_parse_fact_rejects_variables(self):
        with pytest.raises(ParseError):
            parse_fact("Own(x, B, 0.6)")

    def test_parse_fact_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_fact("Own(A, B, 0.6) extra")

    def test_loads_facts_skips_comments_and_blanks(self):
        database = loads_facts("""
        % comment
        Own(A, B, 0.6).

        # another
        Company(A).
        """)
        assert len(database) == 2

    def test_loads_facts_reports_line_number(self):
        with pytest.raises(ParseError) as info:
            loads_facts("Own(A, B, 0.6).\nbroken line\n")
        assert "line 2" in str(info.value)

    def test_roundtrip_via_disk(self, tmp_path):
        database = Database([fact("Own", "A", "B", 0.6), fact("Company", "A")])
        path = tmp_path / "x.facts"
        save_facts(database, path)
        reloaded = load_facts(path)
        assert set(reloaded.facts()) == set(database.facts())


class TestGlossaryFiles:
    def test_loads_glossary(self):
        glossary = loads_glossary(GLOSSARY_JSON)
        assert "Own" in glossary
        assert glossary.entry("Control").params == ("x", "y")

    def test_invalid_shape_rejected(self):
        with pytest.raises(ParseError):
            loads_glossary('["not", "an", "object"]')
        with pytest.raises(ParseError):
            loads_glossary('{"Own": {"params": ["x"]}}')

    def test_roundtrip_via_disk(self, tmp_path):
        glossary = loads_glossary(GLOSSARY_JSON)
        path = tmp_path / "g.json"
        dump_glossary(glossary, path)
        reloaded = load_glossary(path)
        assert reloaded.predicates() == glossary.predicates()
        assert reloaded.entry("Own").text == glossary.entry("Own").text


class TestDatabaseSnapshots:
    """``repro-db/1`` snapshots: symbol table + interned facts, so a warm
    start rebuilds the identical columnar encoding."""

    def test_roundtrip_preserves_encoding(self):
        database = Database([
            fact("Own", "A", "B", 0.6),
            fact("Company", "A"),
            fact("Own", "B", "C", 0.7),
        ])
        restored = loads_database(dumps_database(database))
        assert restored.facts() == database.facts()
        for current in database.facts():
            assert restored.sequence(current) == database.sequence(current)
        for term in database.symbols:
            assert restored.symbols.lookup(term) == database.symbols.lookup(term)

    def test_roundtrip_preserves_nulls_from_chase(self):
        from repro.datalog import parse_program
        from repro.engine import chase

        program = parse_program(
            "r: Person(x) -> HasParent(x, z).", name="nulls", goal="HasParent"
        )
        chased = chase(
            program, Database([fact("Person", "A"), fact("Person", "B")]),
            strategy="planned",
        ).database
        restored = loads_database(dumps_database(chased))
        assert restored.facts() == chased.facts()
        assert [str(f) for f in restored.facts("HasParent")] == [
            str(f) for f in chased.facts("HasParent")
        ]

    def test_numeric_types_survive_json(self):
        database = Database([fact("P", 2), fact("Q", 2.5), fact("R", True)])
        restored = loads_database(dumps_database(database))
        assert [repr(f.terms[0]) for f in restored.facts()] == [
            "Constant(2)", "Constant(2.5)", "Constant(True)",
        ]

    def test_value_equal_terms_restore_to_canonical_spelling(self):
        """The documented normalization caveat: 1.0 shares 1's id, so a
        round-trip re-spells it canonically — str() output unchanged."""
        database = Database([fact("P", 1), fact("Q", 1.0)])
        restored = loads_database(dumps_database(database))
        assert repr(restored.facts("Q")[0].terms[0]) == "Constant(1)"
        assert str(restored.facts("Q")[0]) == str(database.facts("Q")[0])

    def test_wrong_format_rejected(self):
        with pytest.raises(ParseError):
            loads_database(json.dumps({"format": "repro-db/0", "facts": []}))

    def test_roundtrip_via_disk(self, tmp_path):
        database = Database([fact("Own", "A", "B", 0.6)])
        path = tmp_path / "db.json"
        save_database(database, path)
        assert load_database(path).facts() == database.facts()


@pytest.fixture()
def application_files(tmp_path):
    program = tmp_path / "rules.vada"
    program.write_text(
        "% @goal Control\n"
        "sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).\n"
        "sigma3: Control(x, z), Own(z, y, s), ts = sum(s), ts > 0.5 "
        "-> Control(x, y).\n"
    )
    data = tmp_path / "data.facts"
    data.write_text("Own(A, B, 0.7).\nOwn(B, C, 0.6).\n")
    glossary = tmp_path / "glossary.json"
    glossary.write_text(GLOSSARY_JSON)
    return program, data, glossary


class TestFileDrivenCli:
    def test_listing_without_query(self, application_files, capsys):
        program, data, glossary = application_files
        code = main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Control(A, C)" in output

    def test_single_query(self, application_files, capsys):
        program, data, glossary = application_files
        code = main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary), "--query", "Control(A, C)",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Q_e = {Control(A, C)}" in output
        assert "0.6" in output

    def test_query_all(self, application_files, capsys):
        program, data, glossary = application_files
        code = main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary), "--query-all", "--deterministic",
        ])
        assert code == 0
        assert capsys.readouterr().out.count("Q_e =") == 3

    def test_dot_mode(self, application_files, capsys):
        program, data, glossary = application_files
        code = main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary), "--dot",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_missing_companions_rejected(self, application_files, capsys):
        program, __, __ = application_files
        assert main(["explain", "--program", str(program)]) == 2

    def test_violations_printed(self, tmp_path, capsys):
        program = tmp_path / "rules.vada"
        program.write_text(
            "% @goal Q\n"
            "r1: P(x) -> Q(x).\n"
            "c1: Q(x), Banned(x) -> false.\n"
        )
        data = tmp_path / "data.facts"
        data.write_text("P(A).\nBanned(A).\n")
        glossary = tmp_path / "g.json"
        glossary.write_text(json.dumps({
            "P": {"params": ["x"], "text": "<x> is a p"},
            "Q": {"params": ["x"], "text": "<x> is a q"},
            "Banned": {"params": ["x"], "text": "<x> is banned"},
        }))
        main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary),
        ])
        assert "constraint c1 violated" in capsys.readouterr().out

    def test_shipped_example_files_work(self, capsys):
        code = main([
            "explain", "--program", "examples/data/company_control.vada",
            "--data", "examples/data/portfolio.facts",
            "--glossary", "examples/data/company_control_glossary.json",
            "--query", "Control(AlphaHolding, TargetCorp)",
            "--deterministic",
        ])
        assert code == 0
        assert "TargetCorp" in capsys.readouterr().out


class TestWhyNotCli:
    def test_why_not_flag(self, application_files, capsys):
        from repro.cli import main

        program, data, glossary = application_files
        code = main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary), "--why-not", "Control(B, A)",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "does not hold" in output


class TestSyntaxQuoting:
    def test_channel_labels_roundtrip_through_fact_files(self, tmp_path):
        """Lowercase string constants ("long") must be quoted on save so
        they reload as constants, not variables."""
        database = Database([fact("Risk", "C", 11, "long")])
        path = tmp_path / "risks.facts"
        save_facts(database, path)
        assert '"long"' in path.read_text()
        reloaded = load_facts(path)
        assert fact("Risk", "C", 11, "long") in reloaded
