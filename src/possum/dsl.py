"""The textual knowledge-base and world language.

Two file kinds share one lexer.  A knowledge-base file holds lexicon
blocks (named strength levels), taxonomy declarations, rules, cases,
and precedent links:

    lexicon { high-chance = 0.9; }
    taxonomy defense/anti-trust/market-dominance;

    rule lobby-defense context (hostile-takeover ?r ?t)
        tnorm T2 suff high-chance nec 0 {
      if (strong-political-lobby ?t)
      then (anti-trust-success ?r ?t)
    }

    case brown-shoe path defense/anti-trust/market-dominance
        tnorm T2 suff high-chance nec 0 {
      roles ?r ?t
      if (similar-industry ?r ?t) (large-merged-national-market ?r ?t)
      then (anti-trust-success ?r ?t)
    }

    precedent (anti-trust-success) from defense/anti-trust tnorm T2;

A world file binds roles and lists evidence:

    world M1 {
      roles ?r = Mobil ?t = Marathon;
      fact (similar-industry Mobil Marathon) [0.9, 1.0] @filings;
      askable weak-foreign-competition;
    }

Parsing is recursive descent with one token of lookahead.  Errors carry
line:column spans; inside a knowledge-base file the parser recovers at
the next top-level keyword so one bad declaration does not hide the
rest.  Lexicon labels resolve in a second pass, so a block may follow
its uses.  ``render_kb`` emits a canonical form (sorted, labels
replaced by their numbers) that re-parses to an equal knowledge base.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path as FsPath

from .calculus import CertaintyInterval, ConflictPolicy, TNormFamily
from .errors import DomainError, ParseError, ParseFailure, UnboundRoleError
from .knowledge import (
    Atom,
    CaseTemplate,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    World,
    assert_evidence,
    format_path,
    substitute,
)

__all__ = [
    "parse_kb",
    "parse_world",
    "parse_goal",
    "parse_interval_text",
    "load_kb",
    "load_world",
    "render_kb",
    "render_world",
    "format_number",
]

_TOP_KEYWORDS = frozenset({"lexicon", "taxonomy", "rule", "case", "precedent", "world"})


class _Kind(Enum):
    IDENT = "identifier"
    ROLEVAR = "role variable"
    NUMBER = "number"
    LBRACE = "'{'"
    RBRACE = "'}'"
    LPAREN = "'('"
    RPAREN = "')'"
    LBRACKET = "'['"
    RBRACKET = "']'"
    SEMI = "';'"
    COMMA = "','"
    EQUALS = "'='"
    SLASH = "'/'"
    AT = "'@'"
    EOF = "end of input"


_PUNCT = {
    "{": _Kind.LBRACE,
    "}": _Kind.RBRACE,
    "(": _Kind.LPAREN,
    ")": _Kind.RPAREN,
    "[": _Kind.LBRACKET,
    "]": _Kind.RBRACKET,
    ";": _Kind.SEMI,
    ",": _Kind.COMMA,
    "=": _Kind.EQUALS,
    "/": _Kind.SLASH,
    "@": _Kind.AT,
}

# Identifiers may continue with '.' and '-' so family tags (T1.5) and
# hyphenated predicates (hhi-post-above-1800) are single tokens.
_IDENT_CONT = "_.-"


@dataclass(slots=True)
class _Token:
    kind: _Kind
    text: str
    line: int
    column: int
    length: int
    number: float = 0.0

    def describe(self) -> str:
        if self.kind in (_Kind.IDENT, _Kind.ROLEVAR, _Kind.NUMBER):
            return f"{self.kind.value} {self.text!r}"
        return self.kind.value


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_cont(c: str) -> bool:
    return c.isalnum() or c in _IDENT_CONT


# ASCII only: str.isdigit() also admits characters such as '²', which
# float() rejects, and '٣', which it reads as 3.
_DIGITS = frozenset("0123456789")


def tokenize(text: str, source_name: str = "<input>") -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, line, col, 1))
            i += 1
            col += 1
            continue
        if c == "?":
            start = i
            i += 1
            while i < n and _is_ident_cont(text[i]):
                i += 1
            word = text[start:i]
            if len(word) == 1:
                raise ParseError("'?' must introduce a role name", line, col, source_name)
            tokens.append(_Token(_Kind.ROLEVAR, word, line, col, len(word)))
            col += len(word)
            continue
        if c in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in _DIGITS:
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in _DIGITS:
                    i = j
                    while i < n and text[i] in _DIGITS:
                        i += 1
            word = text[start:i]
            tokens.append(_Token(_Kind.NUMBER, word, line, col, len(word), float(word)))
            col += len(word)
            continue
        if _is_ident_start(c):
            start = i
            i += 1
            while i < n and _is_ident_cont(text[i]):
                i += 1
            word = text[start:i]
            tokens.append(_Token(_Kind.IDENT, word, line, col, len(word)))
            col += len(word)
            continue
        raise ParseError(f"unexpected character {c!r}", line, col, source_name)
    tokens.append(_Token(_Kind.EOF, "", line, col, 0))
    return tokens


@dataclass(slots=True)
class _Label:
    """A strength given as a lexicon label, resolved in pass two."""

    name: str
    token: _Token


@dataclass(slots=True)
class _Decl:
    """A parsed rule or case; ``token`` is its keyword, which names the kind.

    ``path`` is a rule's class or a case's taxonomy path, and ``roles``
    is None for a rule.
    """

    token: _Token
    identifier: str
    path: tuple[str, ...]
    path_token: _Token
    roles: tuple[str, ...] | None
    context: tuple[Atom, ...]
    antecedents: tuple[Atom, ...]
    consequent: Atom
    family: TNormFamily
    sufficiency: float | _Label
    necessity: float | _Label


@dataclass(slots=True)
class _LinkDecl:
    token: _Token
    predicate: str
    path: tuple[str, ...]
    family: TNormFamily


class _Parser:
    def __init__(self, tokens: list[_Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    # -- token plumbing ----------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind is not _Kind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: _Kind) -> bool:
        return self.cur.kind is kind

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind is _Kind.IDENT and self.cur.text == word

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        tok = token or self.cur
        return ParseError(message, tok.line, tok.column, self.source_name)

    def expect(self, kind: _Kind, context: str) -> _Token:
        if self.cur.kind is not kind:
            raise self.error(f"expected {kind.value} {context}, found {self.cur.describe()}")
        return self.advance()

    def expect_keyword(self, word: str, context: str) -> _Token:
        if not self.at_keyword(word):
            raise self.error(f"expected '{word}' {context}, found {self.cur.describe()}")
        return self.advance()

    def synchronize(self) -> None:
        """Panic recovery: skip ahead to the next top-level keyword."""
        self.advance()
        while not self.at(_Kind.EOF):
            if self.cur.kind is _Kind.IDENT and self.cur.text in _TOP_KEYWORDS:
                return
            self.advance()

    # -- shared pieces -----------------------------------------------

    def parse_atom(self) -> Atom:
        self.expect(_Kind.LPAREN, "to open an atom")
        pred = self.expect(_Kind.IDENT, "as the atom's predicate")
        args: list[str] = []
        while self.at(_Kind.IDENT) or self.at(_Kind.ROLEVAR):
            args.append(self.advance().text)
        self.expect(_Kind.RPAREN, "to close the atom")
        return Atom(pred.text, tuple(args))

    def parse_atoms(self, context: str) -> tuple[Atom, ...]:
        if not self.at(_Kind.LPAREN):
            raise self.error(f"expected at least one atom {context}, found {self.cur.describe()}")
        atoms = []
        while self.at(_Kind.LPAREN):
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_path(self) -> tuple[tuple[str, ...], _Token]:
        first = self.expect(_Kind.IDENT, "to start a taxonomy path")
        parts = [first.text]
        while self.at(_Kind.SLASH):
            self.advance()
            parts.append(self.expect(_Kind.IDENT, "after '/' in a taxonomy path").text)
        return tuple(parts), first

    def parse_family(self) -> TNormFamily:
        tok = self.expect(_Kind.IDENT, "naming a t-norm family after 'tnorm'")
        try:
            return TNormFamily.from_label(tok.text)
        except DomainError:
            raise self.error(
                f"unknown t-norm family {tok.text!r} (one of T1, T1.5, T2, T2.5, T3)", tok
            ) from None

    def parse_strength(self, what: str) -> float | _Label:
        if self.at(_Kind.NUMBER):
            tok = self.advance()
            if not 0.0 <= tok.number <= 1.0:
                raise self.error(f"{what} {tok.text} outside [0, 1]", tok)
            return tok.number
        if self.at(_Kind.IDENT):
            tok = self.advance()
            return _Label(tok.text, tok)
        raise self.error(f"expected a number or lexicon label for {what}, found {self.cur.describe()}")

    def parse_unit_number(self, what: str) -> float:
        tok = self.expect(_Kind.NUMBER, f"for {what}")
        if not 0.0 <= tok.number <= 1.0:
            raise self.error(f"{what} {tok.text} outside [0, 1]", tok)
        return tok.number

    def parse_interval(self) -> CertaintyInterval:
        open_tok = self.expect(_Kind.LBRACKET, "to open an interval")
        lower = self.parse_unit_number("interval lower bound")
        self.expect(_Kind.COMMA, "between interval bounds")
        upper = self.parse_unit_number("interval upper bound")
        self.expect(_Kind.RBRACKET, "to close the interval")
        if lower > upper:
            raise self.error(f"interval lower bound {lower:g} exceeds upper bound {upper:g}", open_tok)
        return CertaintyInterval(lower, upper)


class _KbParser(_Parser):
    def __init__(self, tokens: list[_Token], source_name: str):
        super().__init__(tokens, source_name)
        self.lexicon: dict[str, float] = {}
        self.taxonomy: set[tuple[str, ...]] = set()
        self.rules: list[_Decl] = []
        self.cases: list[_Decl] = []
        self.links: list[_LinkDecl] = []
        self.errors: list[ParseError] = []

    def parse_file(self) -> None:
        while not self.at(_Kind.EOF):
            try:
                self.parse_declaration()
            except ParseError as err:
                self.errors.append(err)
                self.synchronize()

    def parse_declaration(self) -> None:
        if self.at_keyword("lexicon"):
            self.parse_lexicon()
        elif self.at_keyword("taxonomy"):
            self.parse_taxonomy()
        elif self.at_keyword("rule") or self.at_keyword("case"):
            self.parse_rule_or_case()
        elif self.at_keyword("precedent"):
            self.parse_precedent()
        else:
            raise self.error(
                "expected a declaration (lexicon, taxonomy, rule, case, or precedent), "
                f"found {self.cur.describe()}"
            )

    def parse_lexicon(self) -> None:
        self.advance()
        self.expect(_Kind.LBRACE, "after 'lexicon'")
        while not self.at(_Kind.RBRACE):
            name = self.expect(_Kind.IDENT, "as a lexicon label")
            self.expect(_Kind.EQUALS, "after the lexicon label")
            value = self.parse_unit_number(f"lexicon label {name.text!r}")
            self.expect(_Kind.SEMI, "after the lexicon entry")
            if name.text in self.lexicon:
                raise self.error(f"lexicon label {name.text!r} defined twice", name)
            self.lexicon[name.text] = value
        self.advance()

    def parse_taxonomy(self) -> None:
        self.advance()
        path, _ = self.parse_path()
        self.expect(_Kind.SEMI, "after the taxonomy path")
        self.taxonomy.add(path)

    def parse_rule_or_case(self) -> None:
        """``rule ID [path P] [context A..] GRADING { if A.. then A }`` or
        ``case ID path P GRADING { roles ?v.. [context A..] if A.. then A }``."""
        keyword = self.advance()
        kind = keyword.text
        ident = self.expect(_Kind.IDENT, f"naming the {kind}")
        path: tuple[str, ...] = ()
        path_token = keyword
        if kind == "case" or self.at_keyword("path"):
            self.expect_keyword("path", f"in the {kind} header")
            path, path_token = self.parse_path()
        roles = None
        context = self.parse_context() if kind == "rule" else ()
        self.expect_keyword("tnorm", f"in the {kind} header")
        family = self.parse_family()
        self.expect_keyword("suff", f"in the {kind} header")
        sufficiency = self.parse_strength("sufficiency")
        self.expect_keyword("nec", f"in the {kind} header")
        necessity = self.parse_strength("necessity")
        self.expect(_Kind.LBRACE, f"to open the {kind} body")
        if kind == "case":
            self.expect_keyword("roles", "to start the case body")
            names = []
            while self.at(_Kind.ROLEVAR):
                names.append(self.advance().text)
            roles = tuple(names)
            context = self.parse_context()
        self.expect_keyword("if", f"to start the {kind} premises")
        antecedents = self.parse_atoms("after 'if'")
        self.expect_keyword("then", f"before the {kind} conclusion")
        consequent = self.parse_atom()
        self.expect(_Kind.RBRACE, f"to close the {kind} body")
        (self.rules if roles is None else self.cases).append(
            _Decl(
                keyword, ident.text, path, path_token, roles, context, antecedents,
                consequent, family, sufficiency, necessity,
            )
        )

    def parse_context(self) -> tuple[Atom, ...]:
        if not self.at_keyword("context"):
            return ()
        self.advance()
        return self.parse_atoms("after 'context'")

    def parse_precedent(self) -> None:
        keyword = self.advance()
        atom = self.parse_atom()
        self.expect_keyword("from", "after the precedent's conclusion atom")
        path, _ = self.parse_path()
        self.expect_keyword("tnorm", "in the precedent declaration")
        family = self.parse_family()
        self.expect(_Kind.SEMI, "after the precedent declaration")
        self.links.append(_LinkDecl(keyword, atom.predicate, path, family))

    # -- pass two ----------------------------------------------------

    def resolve_strength(self, value: float | _Label, what: str) -> float:
        if isinstance(value, _Label):
            if value.name not in self.lexicon:
                raise self.error(f"unknown lexicon label {value.name!r} for {what}", value.token)
            return self.lexicon[value.name]
        return value

    def build(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        library = kb.case_library
        library.paths = set(self.taxonomy)
        for decls, table in ((self.rules, kb.rules), (self.cases, library.templates)):
            for decl in decls:
                kind = decl.token.text
                owner = f"{kind} {decl.identifier}"
                try:
                    sufficiency = self.resolve_strength(decl.sufficiency, owner)
                    necessity = self.resolve_strength(decl.necessity, owner)
                    if decl.roles is not None and not library.has_path(decl.path):
                        raise self.error(
                            f"case {decl.identifier!r} filed under undeclared path "
                            f"{format_path(decl.path)}",
                            decl.path_token,
                        )
                    if decl.identifier in table:
                        raise self.error(f"{kind} {decl.identifier!r} declared twice", decl.token)
                except ParseError as err:
                    self.errors.append(err)
                    continue
                if decl.roles is None:
                    table[decl.identifier] = Rule(
                        decl.identifier, decl.context, decl.antecedents, decl.consequent,
                        sufficiency, necessity, decl.family, rule_class=decl.path,
                    )
                else:
                    table[decl.identifier] = CaseTemplate(
                        decl.identifier, decl.path, decl.roles, decl.context, decl.antecedents,
                        decl.consequent, sufficiency, necessity, decl.family,
                    )
        for decl in self.links:
            if decl.predicate in kb.precedent_links:
                self.errors.append(
                    self.error(
                        f"predicate {decl.predicate!r} already has a precedent link", decl.token
                    )
                )
                continue
            kb.precedent_links[decl.predicate] = PrecedentLink(
                target_predicate=decl.predicate, path=decl.path, family=decl.family
            )
        return kb


def parse_kb(text: str, source_name: str = "<input>") -> KnowledgeBase:
    """Parse a knowledge-base file.

    Raises ParseError for a single problem, ParseFailure listing all of
    them when recovery found several.
    """
    parser = _KbParser(tokenize(text, source_name), source_name)
    parser.parse_file()
    kb = parser.build()
    if parser.errors:
        if len(parser.errors) == 1:
            raise parser.errors[0]
        raise ParseFailure(parser.errors)
    return kb


class _WorldParser(_Parser):
    def parse_file(self, policy: ConflictPolicy) -> World:
        self.expect_keyword("world", "to start a world file")
        ident = self.expect(_Kind.IDENT, "naming the world")
        world = World(identifier=ident.text)
        self.expect(_Kind.LBRACE, "to open the world body")
        while not self.at(_Kind.RBRACE):
            if self.at_keyword("roles"):
                self.parse_roles(world)
            elif self.at_keyword("fact"):
                self.parse_fact(world, policy)
            elif self.at_keyword("askable"):
                self.advance()
                pred = self.expect(_Kind.IDENT, "naming the askable predicate")
                self.expect(_Kind.SEMI, "after the askable declaration")
                world.askables.add(pred.text)
            else:
                raise self.error(
                    f"expected 'roles', 'fact', or 'askable', found {self.cur.describe()}"
                )
        self.advance()
        self.expect(_Kind.EOF, "after the world body")
        return world

    def parse_roles(self, world: World) -> None:
        self.advance()
        while self.at(_Kind.ROLEVAR):
            var = self.advance()
            self.expect(_Kind.EQUALS, f"after role {var.text}")
            value = self.expect(_Kind.IDENT, f"as the binding of {var.text}")
            if var.text in world.roles:
                raise self.error(f"role {var.text} bound twice", var)
            world.roles[var.text] = value.text
        self.expect(_Kind.SEMI, "after the role bindings")

    def parse_fact(self, world: World, policy: ConflictPolicy) -> None:
        keyword = self.advance()
        atom = self.parse_atom()
        interval = self.parse_interval()
        source = "asserted"
        if self.at(_Kind.AT):
            self.advance()
            source = self.expect(_Kind.IDENT, "naming the evidence source").text
        self.expect(_Kind.SEMI, "after the fact")
        try:
            ground = substitute(atom, world.roles)
        except UnboundRoleError as err:
            raise self.error(f"fact mentions unbound role: {err}", keyword) from None
        assert_evidence(world, ground, interval, source, policy)


def parse_world(
    text: str,
    source_name: str = "<input>",
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> World:
    """Parse a world file.  Conflicting sources surface per ``policy``."""
    parser = _WorldParser(tokenize(text, source_name), source_name)
    return parser.parse_file(policy)


def parse_goal(text: str, source_name: str = "<goal>") -> tuple[Atom, bool]:
    """Parse a query goal: an atom, optionally wrapped in ``(not ...)``.

    Returns the atom and whether the query is negated.
    """
    parser = _Parser(tokenize(text, source_name), source_name)
    parser.expect(_Kind.LPAREN, "to open the goal")
    negated = False
    if parser.at_keyword("not"):
        parser.advance()
        atom = parser.parse_atom()
        negated = True
        parser.expect(_Kind.RPAREN, "to close the negation")
    else:
        pred = parser.expect(_Kind.IDENT, "as the goal's predicate")
        args = []
        while parser.at(_Kind.IDENT) or parser.at(_Kind.ROLEVAR):
            args.append(parser.advance().text)
        parser.expect(_Kind.RPAREN, "to close the goal")
        atom = Atom(pred.text, tuple(args))
    parser.expect(_Kind.EOF, "after the goal")
    return atom, negated


def parse_interval_text(text: str, source_name: str = "<interval>") -> CertaintyInterval:
    parser = _Parser(tokenize(text, source_name), source_name)
    interval = parser.parse_interval()
    parser.expect(_Kind.EOF, "after the interval")
    return interval


def parse_evidence_text(
    text: str, source_name: str = "<input>"
) -> tuple[Atom, CertaintyInterval, str | None]:
    """Parse ``(atom) [l, u] @source`` with the source part optional."""
    parser = _Parser(tokenize(text, source_name), source_name)
    atom = parser.parse_atom()
    interval = parser.parse_interval()
    source = None
    if parser.at(_Kind.AT):
        parser.advance()
        source = parser.expect(_Kind.IDENT, "naming the evidence source").text
    parser.expect(_Kind.EOF, "after the evidence")
    return atom, interval, source


def load_kb(path: str | FsPath) -> KnowledgeBase:
    path = FsPath(path)
    return parse_kb(path.read_text(encoding="utf-8"), str(path))


def load_world(
    path: str | FsPath, policy: ConflictPolicy = ConflictPolicy.STRICT
) -> World:
    path = FsPath(path)
    return parse_world(path.read_text(encoding="utf-8"), str(path), policy)


# -- rendering -------------------------------------------------------


def format_number(value: float) -> str:
    """Whole numbers print bare (0, 1); everything else as repr."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _render_rule_or_case(
    item: Rule | CaseTemplate, path: tuple[str, ...], roles: tuple[str, ...] | None
) -> str:
    """A rule's context goes in its header; a case's roles and context open its body."""
    head = ["case" if roles is not None else "rule", item.identifier]
    if roles is not None or path:
        head.append(f"path {format_path(path)}")
    body = []
    context = ["context " + " ".join(str(a) for a in item.context)] if item.context else []
    if roles is None:
        head += context
    else:
        body.append(("  roles " + " ".join(roles)).rstrip())
        body += ["  " + line for line in context]
    head.append(f"tnorm {item.family.label}")
    head.append(f"suff {format_number(item.sufficiency)}")
    head.append(f"nec {format_number(item.necessity)}")
    lines = [" ".join(head) + " {", *body, f"  if {item.antecedents[0]}"]
    lines += [f"     {atom}" for atom in item.antecedents[1:]]
    lines += [f"  then {item.consequent}", "}"]
    return "\n".join(lines)


def render_kb(kb: KnowledgeBase) -> str:
    """Canonical text for a knowledge base.

    Declarations are sorted, lexicon labels are gone (their numbers are
    inlined), and ``parse_kb(render_kb(kb))`` equals ``kb``.
    """
    blocks: list[str] = []
    taxonomy = sorted(kb.case_library.paths)
    if taxonomy:
        blocks.append("\n".join(f"taxonomy {format_path(p)};" for p in taxonomy))
    for identifier in sorted(kb.rules):
        rule = kb.rules[identifier]
        blocks.append(_render_rule_or_case(rule, rule.rule_class, None))
    for identifier in sorted(kb.case_library.templates):
        case = kb.case_library.templates[identifier]
        blocks.append(_render_rule_or_case(case, case.path, case.roles))
    links = sorted(kb.precedent_links.values(), key=lambda l: l.target_predicate)
    if links:
        blocks.append(
            "\n".join(
                f"precedent ({link.target_predicate}) from {format_path(link.path)} "
                f"tnorm {link.family.label};"
                for link in links
            )
        )
    return "\n\n".join(blocks) + "\n"


def render_world(world: World) -> str:
    """Canonical text for a world: one fact line per (atom, source)."""
    lines = [f"world {world.identifier} {{"]
    if world.roles:
        bindings = " ".join(f"{var} = {world.roles[var]}" for var in sorted(world.roles))
        lines.append(f"  roles {bindings};")
    for atom in sorted(world.facts, key=str):
        fact = world.facts[atom]
        for source in fact.sources():
            iv = fact.evidence[source]
            lines.append(
                f"  fact {atom} [{format_number(iv.lower)}, {format_number(iv.upper)}] "
                f"@{source};"
            )
    for pred in sorted(world.askables):
        lines.append(f"  askable {pred};")
    lines.append("}")
    return "\n".join(lines) + "\n"
