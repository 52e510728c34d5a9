"""Laws of the joined explanation bodies.

A served explanation body is joined from fragments the binding escaped
once per segment (``Explanation.fragments``, ``Explanation.paths_json``)
instead of encoding a payload per request.  Two laws make that sound:

* JSON escaping works one code point at a time and leaves a space
  alone, so ``b" ".join`` of the escaped parts is the escaped join;
* ``explanation_body`` / ``batch_body`` equal ``encode_body`` of the
  reference payloads, whatever the texts, paths and outcomes.

Texts are drawn with quotes, backslashes, control characters,
U+2028/U+2029, non-BMP characters and glossary-like names.
"""

import json
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import company_control
from repro.core.explain import Explanation, json_escaped
from repro.core.service import BatchOutcome, Deadline, ExplanationService
from repro.core.templates import InstantiatedExplanation
from repro.datalog import fact
from repro.datalog.errors import NotDerived
from repro.serve import (
    batch_body,
    batch_payload,
    encode_body,
    explanation_body,
    explanation_payload,
)

_AWKWARD = (
    '"', "\\", "\x00", "\x08", "\t", "\n", "\x1f", "\x7f", "\u2028",
    "\u2029", "\U0001F4B6", "\U00010348", "\u00e9", "\u00a0", "<", "&",
)

#: Any code point but a lone surrogate (which UTF-8 cannot carry),
#: with the ones JSON treats specially drawn often.
TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(_AWKWARD),
    st.characters(blacklist_categories=("Cs",)),
))

#: Names as a glossary or a register spells them.
NAME = st.one_of(
    st.from_regex(
        r"[A-Z][a-z]{1,8}( [A-Z][a-z]{1,8}){0,2}( (SpA|PLC|Ltd\.|& Co\.))?",
        fullmatch=True,
    ),
    TEXT.filter(lambda name: name.strip() != ""),
)

PATHS = st.lists(
    st.one_of(st.from_regex(r"(Pi|Gamma)[0-9]{1,3}", fullmatch=True), TEXT),
    max_size=40,
)


def _explanation(query, texts, sides, paths) -> Explanation:
    """An explanation as a binding composes one: side branches' fragments
    first, then this spine's segments', each escaped once."""
    return Explanation(
        query, None, (),
        tuple(InstantiatedExplanation(text, None, {}) for text in texts),
        tuple(sides),
        paths=tuple(paths),
        fragments=tuple(chain.from_iterable(
            side.fragments for side in sides
        )) + tuple(json_escaped(text) for text in texts),
        paths_json=json.dumps(paths, ensure_ascii=False).encode("utf-8"),
    )


@st.composite
def explanations(draw, depth: int = 2) -> Explanation:
    query = fact("Control", draw(NAME), draw(NAME))
    sides = []
    if depth:
        sides = draw(st.lists(explanations(depth=depth - 1), max_size=2))
    texts = draw(st.lists(TEXT, min_size=1, max_size=4))
    return _explanation(query, texts, sides, draw(PATHS))


@st.composite
def outcomes(draw) -> BatchOutcome:
    kind = draw(st.sampled_from(("ok", "error", "deadline")))
    if kind == "ok":
        explanation = draw(explanations())
        return BatchOutcome.success(explanation.query, explanation)
    query = fact("Control", draw(NAME), draw(NAME))
    if kind == "error":
        return BatchOutcome.failed(query, NotDerived(query))
    return BatchOutcome.missed(query)


class TestEscapeJoin:
    @given(st.lists(TEXT))
    def test_escaped_parts_join_to_the_escaped_text(self, parts):
        joined = " ".join(parts)
        expected = json.dumps(joined, ensure_ascii=False)[1:-1].encode("utf-8")
        assert json_escaped(joined) == expected
        assert b" ".join(json_escaped(part) for part in parts) == expected


class TestAssembledBodies:
    @given(explanations())
    def test_an_explanation_body_is_its_encoded_payload(self, explanation):
        assert explanation_body(explanation) == encode_body(
            explanation_payload(explanation)
        )

    @given(st.lists(outcomes(), max_size=8), st.booleans())
    def test_a_batch_body_is_its_encoded_payload(self, served, partial):
        assert batch_body(served, partial) == encode_body(
            batch_payload(served, partial)
        )


class TestComposedBodies:
    """The same laws over explanations a real binding composed, with
    the awkward characters in the company names it narrates."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(NAME, min_size=4, max_size=4, unique=True))
    def test_a_binding_joins_the_bytes_it_would_encode(self, names):
        a, b, c, d = names
        facts = [
            *map(company_control.company, names),
            company_control.own(a, b, 0.6),
            company_control.own(b, c, 0.6),
            company_control.own(a, d, 0.3),
            company_control.own(c, d, 0.3),
        ]
        with ExplanationService(llm=None) as service:
            session = service.session(company_control.build(), facts)
            derived = [
                query for query in session.answers("Control")
                if session.result.chase_result.is_derived(query)
            ]
            assert fact("Control", a, d) in derived
            absent = fact("Control", d, a)
            for enhanced in (True, False):
                for query in derived:
                    explanation = session.explain(
                        query, prefer_enhanced=enhanced
                    )
                    assert b" ".join(explanation.fragments) == json_escaped(
                        explanation.text
                    )
                    assert explanation_body(explanation) == encode_body(
                        explanation_payload(explanation)
                    )
                mixed = session.explain_batch(
                    [*derived, absent], deadline=Deadline(30.0),
                    prefer_enhanced=enhanced,
                )
                assert [outcome.status for outcome in mixed][-1] == "error"
                spent = session.explain_batch(
                    derived, deadline=Deadline(0.0), prefer_enhanced=enhanced,
                )
                for served, partial in ((mixed, False), (spent, True)):
                    assert batch_body(served, partial) == encode_body(
                        batch_payload(served, partial)
                    )
