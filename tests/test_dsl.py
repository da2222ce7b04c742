"""Lexer, parser, error reporting, and the canonical renderer."""

import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possum.calculus import CertaintyInterval, ConflictPolicy, SourceConflictError, TNormFamily
from possum.errors import ConflictError, ParseError, ParseFailure
from possum.knowledge import Atom, lookup
from possum.dsl import (
    format_number,
    parse_evidence_text,
    parse_goal,
    parse_interval_text,
    parse_kb,
    parse_world,
    render_kb,
    render_world,
    tokenize,
)
from possum.dsl import _match, _split
from generators import dsl_kb, weighted_kb

DATA = resources.files("possum").joinpath("data")


def _texts(tokens):
    return tokens.texts[:-1]


def _position(tokens, i):
    """Token ``i``'s line and column, which the lexer computes for errors."""
    err = tokens.error("", i)
    return err.line, err.column


class TestTokenizer:
    def test_family_label_is_one_token(self):
        assert _texts(tokenize("tnorm T1.5")) == ["tnorm", "T1.5"]

    def test_hyphens_and_digits_stay_inside_identifiers(self):
        assert _texts(tokenize("hhi-post-above-1800")) == ["hhi-post-above-1800"]

    def test_slash_separates_path_segments(self):
        assert _texts(tokenize("defense/anti-trust")) == ["defense", "/", "anti-trust"]

    def test_comments_run_to_end_of_line(self):
        toks = tokenize("alpha # beta gamma\ndelta")
        assert _texts(toks) == ["alpha", "delta"]
        assert _position(toks, 1) == (2, 1)
        assert _position(toks, 2) == (2, 6)

    def test_positions_are_line_and_column(self):
        toks = tokenize("rule r {\n  if (a)\n}")
        by_text = {text: _position(toks, i) for i, text in enumerate(_texts(toks))}
        assert by_text["rule"] == (1, 1)
        assert by_text["r"] == (1, 6)
        assert by_text["if"] == (2, 3)
        assert by_text["a"] == (2, 7)

    def test_number_with_exponent(self):
        assert _texts(tokenize("0.5e-3 2e 3E5")) == ["0.5e-3", "2", "e", "3E5"]
        assert parse_interval_text("[0.5e-3, 1]").lower == 0.5e-3

    def test_unexpected_character_reports_position(self):
        with pytest.raises(ParseError) as exc:
            tokenize("ok\n  %", "f.kb")
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert exc.value.source_name == "f.kb"

    def test_bare_question_mark_rejected(self):
        with pytest.raises(ParseError):
            tokenize("?")

    @pytest.mark.parametrize("text, column", [("x ² y", 3), ("0.5²", 4), ("٣", 1)])
    def test_non_ascii_digit_is_an_unexpected_character(self, text, column):
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        assert exc.value.message == f"unexpected character {text[column - 1]!r}"
        assert (exc.value.line, exc.value.column) == (1, column)

    @pytest.mark.parametrize("text", ["x²", "é1", "a٣b", "ǅx"])
    def test_unicode_identifier_is_one_token(self, text):
        assert _texts(tokenize(text)) == [text]
        assert parse_goal(f"({text})")[0] == Atom(text)

    @pytest.mark.parametrize(
        "text, column",
        [("²x", 1), ("٣", 1), ("x\xa0y", 2), ("x\u2028y", 2), ("a\u0301", 2)],
    )
    def test_unicode_outside_the_classes_is_an_unexpected_character(self, text, column):
        """'²' is alphanumeric but not a letter, so it cannot start an
        identifier; no-break space and U+2028 are neither blanks nor newlines."""
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        assert exc.value.message == f"unexpected character {text[column - 1]!r}"
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_non_ascii_digit_in_a_kb_reports_its_position(self):
        text = "rule r tnorm T2 suff 0.5² nec 0 {\n  if (a)\n  then (q)\n}"
        with pytest.raises(ParseError) as exc:
            parse_kb(text, "k.kb")
        assert (exc.value.line, exc.value.column) == (1, 25)



def _lexed(lex, text):
    """What ``lex`` makes of ``text``: its kinds and texts, or its error."""
    try:
        tokens = lex(text)
    except ParseError as err:
        return err.message, err.line, err.column
    return tokens.kinds, tokens.texts


# Pieces of text that ``str.split`` lexes, and pieces that send a text
# to the pattern: non-ASCII, characters no token takes, the blanks
# ``str.split`` knows and the lexer does not, malformed numbers, and a
# '?' alone or inside a word.
_SPLIT_PIECES = [
    *" \t\r\n{}()[];,=/@?_.-#eE09aZ", "rule", "0.5", "1e-3", "2E5", "?x", "T1.5", "x?",
    "# note\n",
]
_REGEX_PIECES = [*"\x0b\x0c\x1c\x1f\xa0é²٣%+\x00", "2e", "1.", "12abc", "1e+5", "1.5.3"]


class TestSplitLexer:
    """``tokenize`` splits text with ``str`` methods where that gives the
    pattern's tokens, and leaves the rest to the pattern."""

    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(_SPLIT_PIECES + _REGEX_PIECES), max_size=24).map("".join))
    def test_same_tokens_or_error_as_the_pattern(self, text):
        assert _lexed(tokenize, text) == _lexed(_match, text)
        split = _split(text)
        if split is not None:
            assert split == _lexed(_match, text)

    def test_a_kb_is_split(self):
        text = DATA.joinpath("demo.kb").read_text()
        assert _split(text) == _lexed(_match, text)

    def test_non_ascii_in_a_comment_is_split(self):
        assert _split("a # é\n?b") == ([0, 1, 4], ["a", "?b", ""])

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("x é", id="non-ascii"),
            pytest.param("a + b", id="no-token-takes"),
            pytest.param("a\x0bb", id="vertical-tab"),
            pytest.param("a\x0cb", id="form-feed"),
            pytest.param("a\x1cb", id="file-separator"),
            pytest.param("a\x1fb", id="unit-separator"),
            pytest.param("2e", id="exponent-without-digits"),
            pytest.param("12abc", id="number-then-identifier"),
            pytest.param("1.", id="number-then-dot"),
            pytest.param("1e+5", id="plus-signed-exponent"),
            pytest.param("( ? )", id="lone-question-mark"),
            pytest.param("a?b", id="question-mark-inside-identifier"),
            pytest.param("?a?b", id="question-mark-inside-role-variable"),
            pytest.param("-a", id="word-starting-with-hyphen"),
        ],
    )
    def test_text_the_split_cannot_vouch_for_goes_to_the_pattern(self, text):
        assert _split(text) is None
        assert _lexed(tokenize, text) == _lexed(_match, text)


KB_FIXTURE = """
lexicon { likely = 0.75; }

taxonomy deals/big;

rule first path deals/big context (gate ?x) tnorm T2 suff likely nec 0.1 {
  if (a ?x)
     (b)
  then (c ?x)
}

case old-one path deals/big tnorm T3 suff 0.9 nec 0 {
  roles ?x
  context (climate)
  if (a ?x)
  then (c ?x)
}

precedent (c) from deals tnorm T1;
"""


class TestKbParsing:
    def test_fixture_parses_completely(self):
        kb = parse_kb(KB_FIXTURE, "fixture.kb")
        rule = kb.rules["first"]
        assert rule.sufficiency == 0.75
        assert rule.necessity == 0.1
        assert rule.family is TNormFamily.T2
        assert rule.rule_class == ("deals", "big")
        assert rule.context == (Atom("gate", ("?x",)),)
        assert rule.antecedents == (Atom("a", ("?x",)), Atom("b"))
        assert rule.consequent == Atom("c", ("?x",))
        case = kb.case_library.templates["old-one"]
        assert case.path == ("deals", "big")
        assert case.roles == ("?x",)
        assert case.context == (Atom("climate"),)
        link = kb.precedent_links["c"]
        assert link.path == ("deals",)
        assert link.family is TNormFamily.T1

    def test_each_distinct_atom_is_one_object(self):
        text = (
            "rule r1 tnorm T2 suff 0.9 nec 0 { if (p) then (q) }\n"
            "rule r2 context (p) tnorm T2 suff 0.9 nec 0 { if (p a) (p) then (q) }\n"
        )
        kb = parse_kb(text)
        r1, r2 = kb.rules["r1"], kb.rules["r2"]
        assert r1.antecedents[0] is r2.antecedents[1] is r2.context[0]
        assert r1.antecedents[0] == Atom("p")
        assert r1.consequent is r2.consequent
        bare, applied = r2.antecedents[1], r2.antecedents[0]
        assert bare is not applied
        assert applied == Atom("p", ("a",)) and bare != applied

    def test_lexicon_may_follow_its_uses(self):
        text = (
            "rule r tnorm T2 suff likely nec 0 { if (a) then (b) }\n"
            "lexicon { likely = 0.6; }\n"
        )
        kb = parse_kb(text)
        assert kb.rules["r"].sufficiency == 0.6

    def test_unknown_lexicon_label(self):
        text = "rule r tnorm T2 suff nonsense nec 0 { if (a) then (b) }"
        with pytest.raises(ParseError) as exc:
            parse_kb(text)
        assert "nonsense" in exc.value.message

    def test_unknown_family_position(self):
        text = "rule r1 tnorm T9 suff 0.5 nec 0 {\n  if (a)\n  then (b)\n}\n"
        with pytest.raises(ParseError) as exc:
            parse_kb(text, "bad.kb")
        err = exc.value
        assert (err.line, err.column) == (1, 15)
        assert "T9" in err.message
        assert str(err).startswith("bad.kb:1:15:")

    def test_out_of_range_strength_position(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("lexicon { big = 1.5; }")
        assert (exc.value.line, exc.value.column) == (1, 17)
        assert "outside [0, 1]" in exc.value.message

    def test_duplicate_rule_identifier(self):
        text = (
            "rule r tnorm T2 suff 0.5 nec 0 { if (a) then (b) }\n"
            "rule r tnorm T3 suff 0.5 nec 0 { if (a) then (b) }\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_kb(text)
        assert "declared twice" in exc.value.message
        assert exc.value.line == 2

    def test_case_under_undeclared_path(self):
        text = (
            "case c path nowhere tnorm T2 suff 0.5 nec 0 {\n"
            "  roles\n  if (a)\n  then (b)\n}\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_kb(text)
        assert "undeclared path nowhere" in exc.value.message

    def test_recovery_collects_several_errors(self):
        text = (
            "rule broken tnorm T9 suff 0.9 nec 0 {\n"
            "  if (a)\n"
            "  then (b)\n"
            "}\n"
            "case floating path nowhere tnorm T2 suff 0.9 nec 0 {\n"
            "  roles\n"
            "  if (a)\n"
            "  then (b)\n"
            "}\n"
            "rule fine tnorm T2 suff 0.9 nec 0 { if (a) then (b) }\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_kb(text, "multi.kb")
        errors = exc.value.errors
        assert len(errors) == 2
        assert errors[0].line == 1
        assert "T9" in errors[0].message
        assert errors[1].line == 5
        assert "nowhere" in errors[1].message

    def test_missing_brace_reports_expected_token(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("rule r tnorm T2 suff 0.5 nec 0 \n if (a) then (b) }")
        assert "'{'" in exc.value.message


WORLD_FIXTURE = """
world sample {
  roles ?x = Mobil ?y = Marathon;
  fact (deal ?x ?y) [0.8, 1] @filings;
  fact (deal ?x ?y) [0.6, 0.9] @press;
  fact (background) [0.3, 0.7];
  askable market-share;
}
"""


class TestWorldParsing:
    def test_fixture_parses(self):
        world = parse_world(WORLD_FIXTURE)
        assert world.identifier == "sample"
        assert world.roles == {"?x": "Mobil", "?y": "Marathon"}
        deal = Atom("deal", ("Mobil", "Marathon"))
        assert world.facts[deal].sources() == ["filings", "press"]
        assert lookup(world, deal) == CertaintyInterval(0.8, 0.9)
        assert lookup(world, Atom("background")) == CertaintyInterval(0.3, 0.7)
        assert world.facts[Atom("background")].sources() == ["asserted"]
        assert world.askables == {"market-share"}

    def test_duplicate_role_binding(self):
        text = "world w {\n  roles ?x = A ?x = B;\n}"
        with pytest.raises(ParseError) as exc:
            parse_world(text)
        assert "bound twice" in exc.value.message

    def test_unbound_role_in_fact(self):
        text = "world w {\n  fact (p ?ghost) [0, 1];\n}"
        with pytest.raises(ParseError) as exc:
            parse_world(text)
        assert "?ghost" in exc.value.message

    def test_strict_conflict_surfaces_during_parse(self):
        text = (
            "world w {\n"
            "  fact (p) [0.9, 1] @one;\n"
            "  fact (p) [0, 0.2] @two;\n"
            "}"
        )
        with pytest.raises(SourceConflictError):
            parse_world(text)
        world = parse_world(text, policy=ConflictPolicy.LENIENT)
        assert lookup(world, Atom("p")) == CertaintyInterval(0.0, 1.0)
        assert world.diagnostics

    def test_inverted_interval_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_world("world w {\n  fact (p) [0.9, 0.2];\n}")
        assert "exceeds" in exc.value.message


class TestSmallParsers:
    def test_goal(self):
        atom, negated = parse_goal("(anti-trust-success Mobil Marathon)")
        assert atom == Atom("anti-trust-success", ("Mobil", "Marathon"))
        assert not negated

    def test_negated_goal(self):
        atom, negated = parse_goal("(not (merger-blocked ?x))")
        assert atom == Atom("merger-blocked", ("?x",))
        assert negated

    def test_goal_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_goal("(a) (b)")

    def test_interval(self):
        assert parse_interval_text("[0.25, 1]") == CertaintyInterval(0.25, 1.0)

    def test_evidence_with_source(self):
        atom, interval, source = parse_evidence_text("(p A) [0.5, 0.75] @lab")
        assert atom == Atom("p", ("A",))
        assert interval == CertaintyInterval(0.5, 0.75)
        assert source == "lab"

    def test_evidence_without_source(self):
        _, _, source = parse_evidence_text("(p) [0, 1]")
        assert source is None


class TestRenderer:
    def test_format_number(self):
        assert format_number(0.0) == "0"
        assert format_number(1.0) == "1"
        assert format_number(0.85) == "0.85"
        assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2

    def test_fixture_renders_exactly(self):
        assert render_kb(parse_kb(KB_FIXTURE, "fixture.kb")) == (
            "taxonomy deals/big;\n"
            "\n"
            "rule first path deals/big context (gate ?x) tnorm T2 suff 0.75 nec 0.1 {\n"
            "  if (a ?x)\n"
            "     (b)\n"
            "  then (c ?x)\n"
            "}\n"
            "\n"
            "case old-one path deals/big tnorm T3 suff 0.9 nec 0 {\n"
            "  roles ?x\n"
            "  context (climate)\n"
            "  if (a ?x)\n"
            "  then (c ?x)\n"
            "}\n"
            "\n"
            "precedent (c) from deals tnorm T1;\n"
        )

    def test_fixture_round_trip(self):
        kb = parse_kb(KB_FIXTURE, "fixture.kb")
        assert parse_kb(render_kb(kb)) == kb

    def test_render_is_canonical(self):
        kb = parse_kb(KB_FIXTURE, "fixture.kb")
        text = render_kb(kb)
        assert render_kb(parse_kb(text)) == text
        assert "lexicon" not in text
        assert "0.75" in text

    def test_demo_kb_round_trip(self):
        kb = parse_kb(DATA.joinpath("demo.kb").read_text(), "demo.kb")
        assert parse_kb(render_kb(kb)) == kb

    def test_demo_world_round_trip(self):
        world = parse_world(DATA.joinpath("m1.world").read_text(), "m1.world")
        again = parse_world(render_world(world))
        assert again.identifier == world.identifier
        assert again.roles == world.roles
        assert again.askables == world.askables
        assert set(again.facts) == set(world.facts)
        for atom, fact in world.facts.items():
            assert again.facts[atom].evidence == fact.evidence
            assert again.facts[atom].effective == fact.effective

    def test_atoms_are_shared_within_a_parse(self):
        kb, _, _ = weighted_kb(random.Random(1), 500)
        parsed = parse_kb(render_kb(kb))
        by_value = {}
        for item in [*parsed.rules.values(), *parsed.case_library.templates.values()]:
            for atom in (*item.context, *item.antecedents, item.consequent):
                by_value.setdefault(atom, set()).add(id(atom))
        assert len(by_value) > 100
        assert all(len(ids) == 1 for ids in by_value.values())

    def test_generated_kbs_round_trip(self):
        for seed in range(3000):
            kb = dsl_kb(random.Random(seed))
            text = render_kb(kb)
            parsed = parse_kb(text, f"gen{seed}.kb")
            assert parsed == kb, f"seed {seed}"
            assert render_kb(parsed) == text, f"seed {seed}"


# Pieces a mutation inserts: punctuation, keywords, numbers out of range,
# a bare '?', a comment start, non-ASCII digits and a character no token starts with.
_INSERTS = [
    *"(){}[];,=/@?#\n \t", "²", "٣", "%",
    "rule", "case", "if", "then", "tnorm", "suff", "nec", "path", "context",
    "roles", "fact", "world", "askable", "T2", "T9", "0.5", "1.5", "2e1", "?x",
]
FUZZ_SEEDS = 1000


def _mutate(text: str, rng: random.Random) -> str:
    """One to four seeded deletions, insertions and truncations."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        edit = rng.choice("dit")
        if edit == "d":
            text = text[:at] + text[at + rng.randint(1, 20):]
        elif edit == "i":
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
        else:
            text = text[:at]
    return text


def _assert_positions(err: ParseError | ParseFailure, text: str) -> None:
    errors = err.errors if isinstance(err, ParseFailure) else [err]
    assert errors
    for one in errors:
        assert 1 <= one.line <= text.count("\n") + 1, str(one)
        assert one.column >= 1, str(one)


def _outcome(parse, text: str, conflict_ok: bool = False) -> str:
    try:
        parse()
    except (ParseError, ParseFailure) as err:
        _assert_positions(err, text)
        return type(err).__name__
    except ConflictError:
        if not conflict_ok:
            raise
        return "conflict"
    return "ok"


def _error_record(parse) -> list:
    """A parse's outcome, with ``[line, column, str]`` for each parse error."""
    try:
        parse()
    except (ParseError, ParseFailure) as err:
        errors = err.errors if isinstance(err, ParseFailure) else [err]
        assert str(err) == "\n".join(str(one) for one in errors)
        return [type(err).__name__, [[one.line, one.column, str(one)] for one in errors]]
    except ConflictError as err:
        return [type(err).__name__, []]
    return ["ok", []]


def _mutated_corpus_errors():
    """One line per mutated file of ``TestMutatedFiles``: demo.kb, then
    m1.world under the strict and the lenient policy."""
    kb_base = DATA.joinpath("demo.kb").read_text()
    for seed in range(FUZZ_SEEDS):
        text = _mutate(kb_base, random.Random(f"demo.kb-{seed}"))
        yield ["demo.kb", seed, "strict", *_error_record(lambda: parse_kb(text, "demo.kb"))]
    world_base = DATA.joinpath("m1.world").read_text()
    for seed in range(FUZZ_SEEDS):
        text = _mutate(world_base, random.Random(f"m1.world-{seed}"))
        for policy in (ConflictPolicy.STRICT, ConflictPolicy.LENIENT):
            record = _error_record(lambda: parse_world(text, "m1.world", policy))
            yield ["m1.world", seed, policy.value, *record]


PARSE_ERRORS = Path(__file__).parent / "golden" / "parse_errors.jsonl"


class TestMutatedFiles:
    """A mutated file parses, or fails with positioned parse errors only."""

    def test_mutated_kb(self):
        base = DATA.joinpath("demo.kb").read_text()
        outcomes = set()
        for seed in range(FUZZ_SEEDS):
            text = _mutate(base, random.Random(f"demo.kb-{seed}"))
            outcomes.add(_outcome(lambda: parse_kb(text, "demo.kb"), text))
        assert outcomes == {"ok", "ParseError", "ParseFailure"}

    def test_mutated_world(self):
        """Only a strict parse may also stop on conflicting sources."""
        base = DATA.joinpath("m1.world").read_text()
        outcomes = set()
        for seed in range(FUZZ_SEEDS):
            text = _mutate(base, random.Random(f"m1.world-{seed}"))
            outcomes.add(_outcome(lambda: parse_world(text, "m1.world"), text, conflict_ok=True))
            lenient = lambda: parse_world(text, "m1.world", ConflictPolicy.LENIENT)
            outcomes.add(_outcome(lenient, text))
        assert {"ok", "ParseError"} <= outcomes

    def test_error_text_is_pinned(self):
        """Every error's text and position on the corpora above, byte for byte."""
        expected = PARSE_ERRORS.read_text(encoding="utf-8").splitlines()
        actual = [json.dumps(record, ensure_ascii=False) for record in _mutated_corpus_errors()]
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got == want


if __name__ == "__main__":
    # Regenerate the pinned error texts after a deliberate change to them:
    #   PYTHONPATH=src python tests/test_dsl.py
    lines = (json.dumps(record, ensure_ascii=False) for record in _mutated_corpus_errors())
    PARSE_ERRORS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
