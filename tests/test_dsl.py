"""Lexer, parser, error reporting, and the canonical renderer."""

import json
import random
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possum.calculus import CertaintyInterval, ConflictPolicy, SourceConflictError, TNormFamily
from possum.errors import ConflictError, DomainError, ParseError, ParseFailure
from possum.knowledge import (
    Atom,
    CaseTemplate,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    World,
    assert_evidence,
    lookup,
)
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
from possum.dsl import _PRECEDENT, _RULE_OR_CASE, _TAXONOMY, _declared_kb, _token_kb
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

    def test_non_ascii_in_a_comment(self):
        assert parse_world("world w { # é\n  askable b; # ²\n}").askables == {"b"}

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
        text = render_kb(kb)
        for parsed in (parse_kb(text), _token_kb(text)):
            by_value = {}
            for atom in _kb_atoms(parsed):
                by_value.setdefault(atom, set()).add(id(atom))
            assert len(by_value) > 100
            assert all(len(ids) == 1 for ids in by_value.values())
        assert _same_kb(text) is not None

    def test_generated_kbs_round_trip(self):
        for seed in range(3000):
            kb = dsl_kb(random.Random(seed))
            text = render_kb(kb)
            parsed = parse_kb(text, f"gen{seed}.kb")
            assert parsed == kb, f"seed {seed}"
            assert render_kb(parsed) == text, f"seed {seed}"



def _one_rule_kb(identifier="r", antecedent=Atom("p", ("x",)), rule_class=()):
    kb = KnowledgeBase()
    kb.rules[identifier] = Rule(
        identifier, (), (antecedent,), Atom("q"), 0.9, 0.0, TNormFamily.T2, rule_class
    )
    return kb


def _one_case_kb(roles=("?x",), path=("deals",), link_predicate="q", taxonomy=("deals",)):
    kb = KnowledgeBase()
    kb.case_library.declare_path(taxonomy)
    kb.case_library.add(
        CaseTemplate(
            "k", path, roles, (), (Atom("p", ("?x",)),), Atom("q", ("?x",)), 0.9, 0.0,
            TNormFamily.T2,
        )
    )
    kb.precedent_links[link_predicate] = PrecedentLink(link_predicate, ("deals",), TNormFamily.T2)
    return kb


def _with_rule(kb):
    kb.rules.update(_one_rule_kb().rules)
    return kb


def _one_fact_world(identifier="w", atom=Atom("p", ("x",)), source="s", roles=None, askable="a"):
    world = World(identifier, roles=dict(roles or {}), askables={askable})
    assert_evidence(world, atom, CertaintyInterval(0.5, 1.0), source)
    return world


_UNWRITABLE_KBS = [
    (lambda: _one_rule_kb(antecedent=Atom("p", ("x y",))), "x y"),
    (lambda: _one_rule_kb(antecedent=Atom("p q", ("x",))), "p q"),
    (lambda: _one_rule_kb(antecedent=Atom("p", ("?",))), "?"),
    (lambda: _one_rule_kb(antecedent=Atom("p", ("?x y",))), "?x y"),
    (lambda: _one_rule_kb(antecedent=Atom("p", ("1x",))), "1x"),
    (lambda: _one_rule_kb(antecedent=Atom("p", ("x#y",))), "x#y"),
    (lambda: _one_rule_kb(antecedent=Atom("p", ("",))), ""),
    (lambda: _one_rule_kb(antecedent=Atom("p", ("²x",))), "²x"),
    (lambda: _one_rule_kb(identifier="r 1"), "r 1"),
    (lambda: _one_rule_kb(rule_class=("deals", "big/ones")), "big/ones"),
    (lambda: _one_case_kb(roles=("x",)), "x"),
    (lambda: _with_rule(_one_case_kb(roles=("x",))), "x"),  # and an argument, where it is fine
    (lambda: _one_case_kb(path=("deals", "a b"), taxonomy=("deals", "a b")), "a b"),
    (lambda: _one_case_kb(link_predicate="q;"), "q;"),
]

_UNWRITABLE_WORLDS = [
    (lambda: _one_fact_world(source="two words"), "two words"),
    (lambda: _one_fact_world(identifier="W 1"), "W 1"),
    (lambda: _one_fact_world(atom=Atom("p", ("x y",))), "x y"),
    (lambda: _one_fact_world(roles={"x": "A"}), "x"),
    (lambda: _one_fact_world(roles={"?x": "A B"}), "A B"),
    (lambda: _one_fact_world(askable="a b"), "a b"),
]


class TestUnwritableNames:
    """A name the renderer writes must read back as the one identifier or
    role variable it stands for, or ``render_kb(kb)`` would parse back as
    another KB, or not at all."""

    @pytest.mark.parametrize(
        "build, name", _UNWRITABLE_KBS, ids=[repr(n) for _, n in _UNWRITABLE_KBS]
    )
    def test_render_kb_refuses_the_name(self, build, name):
        kb = build()
        with pytest.raises(DomainError, match=re.escape(repr(name))):
            render_kb(kb)

    def test_an_argument_with_a_blank_no_longer_reads_back_as_two(self):
        # The defect: this KB validated, rendered as (p x y) and parsed
        # back as Atom('p', ('x', 'y')).
        kb = _one_rule_kb(antecedent=Atom("p", ("x y",)))
        with pytest.raises(DomainError, match="'x y': it does not read back as one identifier"):
            render_kb(kb)

    @pytest.mark.parametrize(
        "build, name", _UNWRITABLE_WORLDS, ids=[repr(n) for _, n in _UNWRITABLE_WORLDS]
    )
    def test_render_world_refuses_the_name(self, build, name):
        world = build()
        with pytest.raises(DomainError, match=re.escape(repr(name))):
            render_world(world)

    def test_names_that_lex_as_one_token_round_trip(self):
        kb = _one_rule_kb(identifier="r.1-b", antecedent=Atom("café", ("_x", "?y.z", "B-2")))
        assert parse_kb(render_kb(kb)) == kb
        world = _one_fact_world(identifier="W", atom=Atom("café", ("B-2",)), source="src.1")
        again = parse_world(render_world(world))
        assert again.facts.keys() == world.facts.keys()
        assert again.facts[Atom("café", ("B-2",))].sources() == ["src.1"]


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


# -- the two parse paths ---------------------------------------------


def _kb_atoms(kb: KnowledgeBase) -> list[Atom]:
    items = [*kb.rules.values(), *kb.case_library.templates.values()]
    return [atom for item in items for atom in (*item.context, *item.antecedents, item.consequent)]


def _sharing(atoms: list[Atom]) -> list[int]:
    """For each atom, the first position in ``atoms`` that holds the same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(atom), i) for i, atom in enumerate(atoms)]


def _same_kb(text: str) -> KnowledgeBase | None:
    """The declaration path's KB for ``text``, or None, checked against the
    token parser: equal, in the same orders and sharing atoms alike
    wherever it returns one, and None wherever the token parser raises."""
    declared = _declared_kb(text)
    try:
        reference = _token_kb(text)
    except (ParseError, ParseFailure):
        assert declared is None
        return None
    if declared is not None:
        assert declared == reference
        assert list(declared.rules) == list(reference.rules)
        assert list(declared.case_library.templates) == list(reference.case_library.templates)
        assert list(declared.precedent_links) == list(reference.precedent_links)
        assert _sharing(_kb_atoms(declared)) == _sharing(_kb_atoms(reference))
    return declared


def _with_roles(kb_text: str) -> str:
    """A rendered KB with a role on every bare rule or case atom and in
    every empty role list: still text ``render_kb`` writes."""
    kb_text = re.sub(r"(?<!precedent )\(([\w.-]+)\)", r"(\1 ?deal)", kb_text)
    return kb_text.replace("  roles\n", "  roles ?deal\n")


def _commented(kb_text: str, rng: random.Random) -> str:
    """``kb_text`` with comments (non-ASCII ones too) between and after
    declarations."""
    lines = []
    for line in kb_text.split("\n"):
        if rng.random() < 0.05:
            lines.append("# a note on the next line, café")
        lines.append(line + (" # trailing ½" if line and rng.random() < 0.2 else ""))
    return "\n".join(lines)


def _labelled(kb_text: str, rng: random.Random) -> str:
    """``kb_text`` with about half its sufficiencies given as lexicon
    labels, defined in a block after their uses."""
    labels: dict[str, str] = {}

    def label(match: re.Match) -> str:
        if rng.random() < 0.5:
            return match[0]
        return f"suff {labels.setdefault(match[1], f'level-{len(labels)}')} nec"

    kb_text = re.sub(r"suff (\S+) nec", label, kb_text)
    entries = "".join(f"  {name} = {value};\n" for value, name in labels.items())
    return kb_text + "lexicon {\n" + entries + "}\n"


def _assert_decorated_kbs_agree(n_rules: int, seeds, compiled: list[str]) -> None:
    """The rendered text with roles takes the declaration path; its
    commented and its labelled variants take the token parser, to the
    same KB, before any declaration pattern compiles."""
    for seed in seeds:
        rng = random.Random(seed)
        kb, _, _ = weighted_kb(rng, n_rules)
        text = _with_roles(render_kb(kb))
        assert "?deal" in text
        declared = _same_kb(text)
        assert declared is not None and render_kb(declared) == text, f"seed {seed}"
        assert declared.case_library.templates, f"seed {seed}"
        commented, labelled = _commented(text, rng), _labelled(text, rng)
        assert "#" in commented and "level-0" in labelled
        compiled.clear()
        for variant in (commented, labelled):
            assert _token_only(variant, compiled) == declared, f"seed {seed}"


_PIECES = [
    *" \t\r\n{}()[];,=/@?_.-#eE09aZ", "rule", "0.5", "1e-3", "2E5", "?x", "T1.5", "x?", "# note\n",
    *"\x0b\x0c\x1c\x1f\xa0é²٣%+\x00", "2e", "1.", "12abc", "1e+5", "1.5.3",
    "rule r tnorm T2 suff 0.5 nec 0 { if (a) then (b ?x) }", "taxonomy a/b;", "suff l",
    "case c path a tnorm T1 suff 1 nec 0 { roles ?x if (a ?x) then (b ?x) }",
    "lexicon { l = 0.3; }", "precedent (b) from a tnorm T3;", " context (c)", "(d ?y)",
    # The same declarations as ``render_kb`` lays them out.
    "rule r tnorm T2 suff 0.5 nec 0 {\n  if (a)\n  then (b ?x)\n}\n", "taxonomy a/b;\n",
    "case c path a tnorm T1 suff 1 nec 0 {\n  roles ?x\n  if (a ?x)\n     (c)\n  then (b ?x)\n}\n",
    "precedent (b) from a tnorm T3;\n", "\n",
]


def _in_a_premise(piece: str) -> str:
    return f"rule r tnorm T2 suff 0.5 nec 0 {{\n  if (p {piece})\n  then (q)\n}}\n"


def _declaration(head: str, body: str = "") -> str:
    """A rule or case laid out as ``render_kb`` writes one."""
    return f"{head} {{\n{body}  if (a)\n  then (b)\n}}\n"


_RULE = "rule r tnorm T2 suff 1 nec 0"
_CASE = "case c path a tnorm T2 suff 1 nec 0"


def _rendered_fixtures() -> list[str]:
    """The KB fixtures as ``render_kb`` writes them: no lexicon, no comments."""
    texts = (KB_FIXTURE, DATA.joinpath("demo.kb").read_text())
    return [render_kb(parse_kb(text)) for text in texts]


_DECLARATIONS = {_RULE_OR_CASE, _TAXONOMY, _PRECEDENT}


def _token_only(text: str, compiled: list[str]) -> KnowledgeBase:
    """The KB in ``text``, which goes to the token parser before any
    declaration pattern compiles."""
    assert _declared_kb(text) is None
    kb = parse_kb(text)
    assert kb == _token_kb(text)
    assert not _DECLARATIONS & set(compiled)
    return kb


@pytest.fixture
def compiled(monkeypatch) -> list[str]:
    """Every pattern ``re.compile`` is given while the test runs."""
    patterns = []
    compile = re.compile

    def recording(pattern, flags=0):
        patterns.append(pattern)
        return compile(pattern, flags)

    monkeypatch.setattr(re, "compile", recording)
    return patterns


class TestDeclarationPath:
    """A KB the declaration path returns equals the token parser's, and
    it returns None wherever the token parser raises; a world never
    takes it."""

    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
    def test_same_kb_or_none_as_the_tokens(self, text):
        _same_kb(text)

    def test_fixtures_agree(self):
        """The fixtures hold a lexicon, so only their renderings are declared."""
        for text in (KB_FIXTURE, DATA.joinpath("demo.kb").read_text()):
            assert _declared_kb(text) is None
        for text in _rendered_fixtures():
            assert _same_kb(text) is not None

    def test_a_lexicon_kb_compiles_no_declaration_pattern(self, compiled):
        assert parse_kb(DATA.joinpath("demo.kb").read_text(), "demo.kb").rules
        assert compiled and not _DECLARATIONS & set(compiled)
        parse_kb(_rendered_fixtures()[1])
        assert _DECLARATIONS <= set(compiled)

    def test_each_blank_removed_agrees(self):
        """Two word-like tokens with no blank between them are one token
        to the lexer, so a pattern must not read them as two."""
        for text in _rendered_fixtures():
            for blank in re.finditer(r"\s+", text):
                _same_kb(text[:blank.start()] + text[blank.end():])

    def test_each_blank_widened_goes_to_the_tokens(self):
        """The patterns read single spaces and ``render_kb``'s indents only."""
        for text in _rendered_fixtures():
            for blank in re.finditer(r"\s+", text):
                assert _same_kb(text[:blank.start()] + " " + text[blank.start():]) is None

    def test_non_ascii_in_a_comment_goes_to_the_tokens(self, compiled):
        kb = _token_only("taxonomy a; # é\n# ²\ntaxonomy b;\n", compiled)
        assert kb.case_library.paths == {("a",), ("b",)}

    def test_a_lexicon_in_a_comment_goes_to_the_tokens(self, compiled):
        kb = _token_only("# lexicon { l = 0.3; }\ntaxonomy a;\n", compiled)
        assert kb.case_library.paths == {("a",)}

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                _declaration(_RULE) + "\n"
                + _declaration("rule s path a/b context (x) (y ?z) tnorm T1.5 suff 0.25 nec 1e-3"),
                id="two-rules",
            ),
            pytest.param(
                "taxonomy a;\n\n" + _declaration(_CASE, "  roles ?x\n  context (x ?x)\n"),
                id="case-with-roles-and-context",
            ),
            pytest.param(
                "taxonomy a;\ntaxonomy a/b;\n\nprecedent (b) from a/b tnorm T3;\n",
                id="taxonomy-and-link",
            ),
            pytest.param(_in_a_premise("x ?y"), id="role-in-a-premise"),
        ],
    )
    def test_the_layout_render_kb_writes_is_declared(self, text):
        """Texts near those of the next test, in canonical form, take the
        declaration path, so each of those goes to the token parser for
        its own flaw."""
        assert _same_kb(text) is not None

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(_in_a_premise("x é"), id="non-ascii"),
            pytest.param(_declaration("rule ré tnorm T2 suff 1 nec 0"), id="non-ascii-rule-name"),
            pytest.param("taxonomy café;\n", id="non-ascii-path"),
            pytest.param(_in_a_premise("a + b"), id="no-token-takes"),
            pytest.param(_in_a_premise("a\x0bb"), id="vertical-tab"),
            pytest.param(_in_a_premise("a\x0cb"), id="form-feed"),
            pytest.param(_in_a_premise("a\x1cb"), id="file-separator"),
            pytest.param(_in_a_premise("a\x1fb"), id="unit-separator"),
            pytest.param(_in_a_premise("2e"), id="exponent-without-digits"),
            pytest.param(_in_a_premise("12abc"), id="number-then-identifier"),
            pytest.param(_in_a_premise("1."), id="number-then-dot"),
            pytest.param(_in_a_premise("1e+5"), id="plus-signed-exponent"),
            pytest.param(_in_a_premise("( ? )"), id="lone-question-mark"),
            pytest.param(_in_a_premise("a?b"), id="question-mark-inside-identifier"),
            pytest.param(_in_a_premise("?a?b"), id="question-mark-inside-role-variable"),
            pytest.param(_in_a_premise("-a"), id="word-starting-with-hyphen"),
            pytest.param(_in_a_premise("lexicon-size"), id="lexicon-inside-an-identifier"),
            pytest.param(_declaration("rule r tnorm T2 suff likely nec 0"), id="unknown-label"),
            pytest.param(_declaration("rule r tnorm T9 suff 0.5 nec 0"), id="unknown-family"),
            pytest.param(_declaration("rule r tnorm T2 suff 1.5 nec 0"), id="strength-above-1"),
            pytest.param("lexicon { l = 2; }", id="label-above-1"),
            pytest.param("lexicon { l = 0.2; l = 0.3; }", id="label-twice"),
            pytest.param(_declaration(_RULE) * 2, id="identifier-twice"),
            pytest.param(
                "taxonomy a;\n" + _declaration(_CASE, "  roles\n") * 2, id="case-identifier-twice"
            ),
            pytest.param("precedent (a) from x tnorm T1;\n" * 2, id="link-twice"),
            pytest.param(_declaration(_CASE, "  roles\n"), id="undeclared-path"),
            pytest.param(_declaration("rule r tnorm T2 suff 0.5nec 0"), id="no-blank"),
            pytest.param(_declaration("ruler tnorm T2 suff 0.5 nec 0"), id="joined-keyword"),
            pytest.param(
                _declaration(_CASE.replace(" tnorm", " context (x) tnorm"), "  roles\n")
                + "taxonomy a;\n",
                id="case-header-context",
            ),
            pytest.param(_declaration(_RULE, "  roles\n"), id="rule-with-roles"),
            pytest.param(
                _declaration(_CASE.replace(" path a", ""), "  roles\n") + "taxonomy a;\n",
                id="case-without-path",
            ),
            pytest.param(_declaration(_CASE) + "taxonomy a;\n", id="case-without-roles"),
            pytest.param(f"{_RULE} {{\n  if\n  then (b)\n}}\n", id="rule-without-antecedents"),
            pytest.param(
                f"taxonomy a;\n\n{_CASE} {{\n  roles\n  if\n  then (b)\n}}\n",
                id="case-without-antecedents",
            ),
            pytest.param("world w { }", id="world-in-a-kb"),
            pytest.param("taxonomy  a;\n", id="two-spaces"),
            pytest.param("taxonomy a;\r\n", id="carriage-return"),
            pytest.param("\ntaxonomy a;\n", id="leading-blank-line"),
            pytest.param("taxonomy a;\n\n\ntaxonomy b;\n", id="two-blank-lines"),
            pytest.param("taxonomy a;", id="no-final-newline"),
            pytest.param("rule r tnorm T2 suff 1 nec 0 { if (a) then (b) }\n", id="one-line-rule"),
        ],
    )
    def test_text_the_patterns_cannot_vouch_for_goes_to_the_tokens(self, text):
        """Some of these the token parser accepts ('é' is a letter, and
        'a?b' is two arguments), the rest it rejects."""
        assert _declared_kb(text) is None
        assert _outcome(lambda: parse_kb(text), text) == _outcome(lambda: _token_kb(text), text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("world w {\n  fact (p) [0.9, 0.2];\n}", id="inverted-interval"),
            pytest.param("world w {\n  fact (p) [0, 1.5];\n}", id="bound-above-1"),
            pytest.param("world w {\n  roles ?x = A ?x = B;\n}", id="role-twice"),
            pytest.param("world w {\n  fact (p ?x) [0, 1];\n  roles ?x = A;\n}", id="unbound-role"),
            pytest.param("world w {\n  askable p;\n} x", id="text-after-the-body"),
            pytest.param("world w {\n  askable p;\n", id="unclosed-body"),
        ],
    )
    def test_world_the_patterns_cannot_vouch_for(self, text, compiled):
        """A world never takes the declaration path: the token parser
        raises under both policies."""
        for policy in ConflictPolicy:
            with pytest.raises(ParseError):
                parse_world(text, policy=policy)
        assert not _DECLARATIONS & set(compiled)

    def test_a_strict_conflict_is_raised_by_the_token_parser(self, compiled):
        text = "world w {\n  fact (p) [1, 1] @a;\n  fact (p) [0, 0] @b;\n}"
        with pytest.raises(SourceConflictError):
            parse_world(text)
        assert parse_world(text, policy=ConflictPolicy.LENIENT).diagnostics
        assert not _DECLARATIONS & set(compiled)

    def test_rendered_text_takes_the_declaration_path(self):
        """A renderer or pattern change must not send canonical text to
        the token parser."""
        for seed in range(3000):
            assert _same_kb(render_kb(dsl_kb(random.Random(seed)))) is not None, f"seed {seed}"

    def test_mutated_files_agree(self):
        """The rendered demo mutated as in ``TestMutatedFiles``: both paths are taken."""
        declared = fallen_back = 0
        base = _rendered_fixtures()[1]
        for seed in range(FUZZ_SEEDS):
            if _same_kb(_mutate(base, random.Random(f"demo.kb-{seed}"))) is None:
                fallen_back += 1
            else:
                declared += 1
        assert declared > 50 and fallen_back > 500

    def test_decorated_weighted_kbs_agree(self, compiled):
        _assert_decorated_kbs_agree(200, range(20), compiled)

    @pytest.mark.slow
    def test_decorated_weighted_kbs_agree_at_scale(self, compiled):
        _assert_decorated_kbs_agree(4000, range(1, 4), compiled)


if __name__ == "__main__":
    # Regenerate the pinned error texts after a deliberate change to them:
    #   PYTHONPATH=src python tests/test_dsl.py
    lines = (json.dumps(record, ensure_ascii=False) for record in _mutated_corpus_errors())
    PARSE_ERRORS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
