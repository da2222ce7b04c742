"""The textual knowledge-base and world language.

Two file kinds share one grammar.  A knowledge-base file holds lexicon
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

A file is read by one of two paths, chosen by its text alone.  The
declaration path reads exactly what ``render_kb`` writes, one
declaration per match of that kind's pattern: single spaces,
``render_kb``'s line breaks and indents, numbers for strengths, and no
comments.  Every other text goes to the token path: every world, a
knowledge-base text that holds ``#`` or ``lexicon`` before any pattern
compiles, and any other text at the first thing the declaration path
cannot vouch for (text no pattern matches, an unknown family, a number
outside [0, 1], a duplicate, or a case under an undeclared path).  The
patterns are built from the token pieces and make the parser's keyword
and kind checks.  Rules, cases, links and atoms are tuple records
(``knowledge``), so each is built from its groups in one
``tuple.__new__``, past its constructor: the pattern reads at least one
premise, which is all the ``Rule`` constructor checks, and the
path checks each strength and family itself.  The declaration path
accepts only what the token path accepts, and builds the same objects
in the same orders, sharing the same atoms.  Where it gives up, the
token path parses the whole file, so every error, its position and the
recovery come from that path alone.

The token path is the reference.  A file's tokens are parallel lists of
kinds and texts, lexed by one regular expression; token start offsets,
and from an offset a token's line:column, are computed only when an
error names a token.  Parsing is recursive descent over the lists by
index, with one token of lookahead.  Inside a knowledge-base file the
parser recovers at the next top-level keyword so one bad declaration
does not hide the rest.  Lexicon labels resolve at the end, so a block
may follow its uses.

On either path each distinct atom is built once per parse, by
``tuple.__new__``, and shared, and the parse hands its atoms to the
knowledge base as its atom table (``KnowledgeBase.atoms``), so
compiling the KB interns nothing again.  ``render_kb`` emits a
canonical form (sorted, labels replaced by their numbers) that
re-parses, by the declaration path, to an equal knowledge base; it, and
``render_world``, refuse a name that would not read back as the one
token it is.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path as FsPath

from ._records import Record
from .calculus import CertaintyInterval, ConflictPolicy, TNormFamily
from .errors import DomainError, ParseError, ParseFailure, UnboundRoleError
from .knowledge import (
    Atom,
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

# The grammar's one definition.  Each match is one token (the group)
# followed by the blanks and comments after it; only "\n" ends a line.
# Identifiers continue with '.' and '-' so family tags (T1.5) and
# hyphenated predicates (hhi-post-above-1800) are one token; \w is
# str.isalnum() plus '_'.  Numbers take ASCII digits only: str.isdigit()
# also admits '²', which float() rejects, and '٣', which it reads as 3.  A
# word that starts outside ASCII is an identifier only if it starts with
# a letter ('²x' is not), and the last branch takes any other character,
# which is an error.  The declaration patterns below are built from the
# same pieces.  Every pattern is compiled on first use (``re`` caches
# it), not at import.
_BLANKS = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_ID = r"[A-Za-z_][\w.-]*"
_VAR = r"\?[\w.-]+"
_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_TOKEN = f"({_ID}|{_VAR}|{_NUM}" r"|[{}()\[\];,=/@]|\Z|[^\W\d][\w.-]*|.)" + _BLANKS

_IDENT, _ROLEVAR, _NUMBER, _PUNCT, _EOF = range(5)
_KIND_NAMES = {
    _IDENT: "identifier", _ROLEVAR: "role variable", _NUMBER: "number", _EOF: "end of input"
}
_ARGUMENT_KINDS = (_IDENT, _ROLEVAR)
_PUNCTUATION = "{}()[];,=/@"
# A token's kind follows from its first character; None marks a
# non-ASCII start, checked apart.
_KIND_OF = {"": _EOF, "?": _ROLEVAR, "_": _IDENT}
_KIND_OF.update(dict.fromkeys(_PUNCTUATION, _PUNCT))
_KIND_OF.update(dict.fromkeys("0123456789", _NUMBER))
_KIND_OF.update(dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", _IDENT))


class _Tokens:
    """A file's tokens as parallel lists; the last one is the end of input.

    ``starts`` holds each token's offset in ``text``.  Only an error needs
    one, so the first error scans the text again to fill it in.
    """

    __slots__ = ("kinds", "texts", "starts", "text", "source_name")

    def __init__(self, kinds: list[int], texts: list[str], text: str, source_name: str):
        self.kinds, self.texts, self.text, self.source_name = kinds, texts, text, source_name
        self.starts: list[int] | None = None

    def __len__(self) -> int:
        return len(self.kinds)

    def error(self, message: str, i: int) -> ParseError:
        """An error at token ``i``, with its line and column."""
        text = self.text
        if self.starts is None:
            start = re.match(_BLANKS, text).end()
            matches = re.compile(_TOKEN, re.S).finditer(text, start)
            self.starts = [match.start() for match in matches]
            # A comment does not move the column, so the end of input sits
            # where a comment on the last line starts.
            comment = text.find("#", text.rfind("\n") + 1)
            if comment >= 0:
                self.starts[-1] = comment
        offset = self.starts[i]
        line_start = text.rfind("\n", 0, offset) + 1
        line = text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - line_start + 1, self.source_name)


def tokenize(text: str, source_name: str = "<input>") -> _Tokens:
    """Split ``text`` into tokens; a character no token takes raises ParseError."""
    texts = re.compile(_TOKEN, re.S).findall(text, re.match(_BLANKS, text).end())
    kinds = [_KIND_OF.get(word[:1]) for word in texts]
    tokens = _Tokens(kinds, texts, text, source_name)
    if None in kinds or "?" in texts:
        for i, word in enumerate(texts):
            if word == "?":
                raise tokens.error("'?' must introduce a role name", i)
            if kinds[i] is None:
                if not word[0].isalpha():
                    raise tokens.error(f"unexpected character {word[0]!r}", i)
                kinds[i] = _IDENT
    return tokens


class _Label(Record):
    """A strength given as a lexicon label, resolved in pass two."""

    __slots__ = ("name", "token")

    def __init__(self, name: str, token: int) -> None:
        self.name = name
        self.token = token


class _Parser:
    """Recursive descent over token indices: each ``parse_*`` method takes
    the index of its first token and returns its value with the index
    after its last; ``expect`` returns the index after the expected token."""

    def __init__(self, tokens: _Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.resume = 0  # where a recovering parse goes on after an error
        self.atoms: dict[str | tuple[str, ...], Atom] = {}

    # -- token plumbing ----------------------------------------------

    def error(self, message: str, i: int, at: int | None = None) -> ParseError:
        """An error at token ``at`` (default ``i``), raised with the parser at ``i``."""
        self.resume = i
        return self.tokens.error(message, i if at is None else at)

    def describe(self, i: int) -> str:
        kind = self.kinds[i]
        if kind == _PUNCT:
            return f"'{self.texts[i]}'"
        if kind == _EOF:
            return "end of input"
        return f"{_KIND_NAMES[kind]} {self.texts[i]!r}"

    def expected(self, i: int, what: str, context: str) -> ParseError:
        return self.error(f"expected {what} {context}, found {self.describe(i)}", i)

    def expect(self, i: int, text: str, context: str) -> int:
        """Past the punctuation or keyword ``text``."""
        if self.texts[i] != text:
            raise self.expected(i, f"'{text}'", context)
        return i + 1

    def expect_kind(self, i: int, kind: int, context: str) -> int:
        if self.kinds[i] != kind:
            raise self.expected(i, _KIND_NAMES[kind], context)
        return i + 1

    def synchronize(self, i: int) -> int:
        """Panic recovery: skip ahead to the next top-level keyword."""
        last, texts = len(self.kinds) - 1, self.texts
        i = min(i + 1, last)
        while i < last and texts[i] not in _TOP_KEYWORDS:
            i += 1
        return i

    # -- shared pieces -----------------------------------------------

    def parse_atom(self, i: int) -> tuple[Atom, int]:
        if self.texts[i] != "(":
            raise self.expected(i, "'('", "to open an atom")
        return self.parse_atom_body(i + 1, "atom")

    def parse_atom_body(self, i: int, name: str) -> tuple[Atom, int]:
        """``predicate arguments )``, after the '(' of the atom or goal ``name``."""
        kinds, texts = self.kinds, self.texts
        if kinds[i] != _IDENT:
            raise self.expected(i, "identifier", f"as the {name}'s predicate")
        j = i + 1
        while kinds[j] in _ARGUMENT_KINDS:
            j += 1
        if texts[j] != ")":
            raise self.expected(j, "')'", f"to close the {name}")
        # A bare predicate is its own key: no slice, no tuple.
        key = texts[i] if j == i + 1 else tuple(texts[i:j])
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = tuple.__new__(Atom, (texts[i], tuple(texts[i + 1:j])))
        return atom, j + 1

    def parse_atoms(self, i: int, context: str) -> tuple[tuple[Atom, ...], int]:
        if self.texts[i] != "(":
            raise self.expected(i, "at least one atom", context)
        atoms = []
        while self.texts[i] == "(":
            atom, i = self.parse_atom(i)
            atoms.append(atom)
        return tuple(atoms), i

    def parse_path(self, i: int) -> tuple[tuple[str, ...], int]:
        texts = self.texts
        i = self.expect_kind(i, _IDENT, "to start a taxonomy path")
        parts = [texts[i - 1]]
        while texts[i] == "/":
            i = self.expect_kind(i + 1, _IDENT, "after '/' in a taxonomy path")
            parts.append(texts[i - 1])
        return tuple(parts), i

    def parse_family(self, i: int) -> tuple[TNormFamily, int]:
        self.expect_kind(i, _IDENT, "naming a t-norm family after 'tnorm'")
        label = self.texts[i]
        try:
            return TNormFamily.from_label(label), i + 1
        except DomainError:
            raise self.error(
                f"unknown t-norm family {label!r} (one of T1, T1.5, T2, T2.5, T3)", i + 1, i
            ) from None

    def parse_strength(self, i: int, what: str) -> tuple[float | _Label, int]:
        kind = self.kinds[i]
        if kind == _NUMBER:
            return self.parse_unit_number(i, what)
        if kind == _IDENT:
            return _Label(self.texts[i], i), i + 1
        raise self.expected(i, "a number or lexicon label", f"for {what}")

    def parse_unit_number(self, i: int, what: str) -> tuple[float, int]:
        if self.kinds[i] != _NUMBER:
            raise self.expected(i, "number", f"for {what}")
        value = float(self.texts[i])
        if not 0.0 <= value <= 1.0:
            raise self.error(f"{what} {self.texts[i]} outside [0, 1]", i + 1, i)
        return value, i + 1

    def parse_interval(self, i: int) -> tuple[CertaintyInterval, int]:
        j = self.expect(i, "[", "to open an interval")
        lower, j = self.parse_unit_number(j, "interval lower bound")
        j = self.expect(j, ",", "between interval bounds")
        upper, j = self.parse_unit_number(j, "interval upper bound")
        j = self.expect(j, "]", "to close the interval")
        if lower > upper:
            raise self.error(f"interval lower bound {lower:g} exceeds upper bound {upper:g}", j, i)
        return CertaintyInterval(lower, upper), j

    def parse_source(self, i: int) -> tuple[str | None, int]:
        """An optional ``@source``."""
        if self.texts[i] != "@":
            return None, i
        i = self.expect_kind(i + 1, _IDENT, "naming the evidence source")
        return self.texts[i - 1], i


class _KbParser(_Parser):
    def __init__(self, tokens: _Tokens):
        super().__init__(tokens)
        self.lexicon: dict[str, float] = {}
        self.taxonomy: set[tuple[str, ...]] = set()
        # Each declaration read, after the index of its keyword.  A rule's
        # or case's strengths may be labels, which pass two resolves.
        self.rules: list[tuple[int, Rule]] = []
        self.cases: list[tuple[int, Rule]] = []
        self.links: list[tuple[int, PrecedentLink]] = []
        self.errors: list[ParseError] = []

    def parse_file(self) -> None:
        i = 0
        while self.kinds[i] != _EOF:
            try:
                i = self.parse_declaration(i)
            except ParseError as err:
                self.errors.append(err)
                i = self.synchronize(self.resume)

    def parse_declaration(self, i: int) -> int:
        word = self.texts[i]
        if word == "rule" or word == "case":
            return self.parse_rule_or_case(i)
        if word == "lexicon":
            return self.parse_lexicon(i + 1)
        if word == "taxonomy":
            path, i = self.parse_path(i + 1)
            self.taxonomy.add(path)
            return self.expect(i, ";", "after the taxonomy path")
        if word == "precedent":
            return self.parse_precedent(i)
        raise self.error(
            "expected a declaration (lexicon, taxonomy, rule, case, or precedent), "
            f"found {self.describe(i)}",
            i,
        )

    def parse_lexicon(self, i: int) -> int:
        texts = self.texts
        i = self.expect(i, "{", "after 'lexicon'")
        while texts[i] != "}":
            name_at, name = i, texts[i]
            i = self.expect_kind(i, _IDENT, "as a lexicon label")
            i = self.expect(i, "=", "after the lexicon label")
            value, i = self.parse_unit_number(i, f"lexicon label {name!r}")
            i = self.expect(i, ";", "after the lexicon entry")
            if name in self.lexicon:
                raise self.error(f"lexicon label {name!r} defined twice", i, name_at)
            self.lexicon[name] = value
        return i + 1

    def parse_rule_or_case(self, i: int) -> int:
        """``rule ID [path P] [context A..] GRADING { if A.. then A }`` or
        ``case ID path P GRADING { roles ?v.. [context A..] if A.. then A }``."""
        kinds, texts = self.kinds, self.texts
        keyword, kind = i, texts[i]
        i = self.expect_kind(i + 1, _IDENT, f"naming the {kind}")
        path: tuple[str, ...] = ()
        if kind == "case" or texts[i] == "path":
            i = self.expect(i, "path", f"in the {kind} header")
            path, i = self.parse_path(i)
        roles = None
        context, i = self.parse_context(i) if kind == "rule" else ((), i)
        i = self.expect(i, "tnorm", f"in the {kind} header")
        family, i = self.parse_family(i)
        i = self.expect(i, "suff", f"in the {kind} header")
        sufficiency, i = self.parse_strength(i, "sufficiency")
        i = self.expect(i, "nec", f"in the {kind} header")
        necessity, i = self.parse_strength(i, "necessity")
        i = self.expect(i, "{", f"to open the {kind} body")
        if kind == "case":
            start = i = self.expect(i, "roles", "to start the case body")
            while kinds[i] == _ROLEVAR:
                i += 1
            roles = tuple(texts[start:i])
            context, i = self.parse_context(i)
        i = self.expect(i, "if", f"to start the {kind} premises")
        antecedents, i = self.parse_atoms(i, "after 'if'")
        i = self.expect(i, "then", f"before the {kind} conclusion")
        consequent, i = self.parse_atom(i)
        i = self.expect(i, "}", f"to close the {kind} body")
        rule = Rule(
            texts[keyword + 1], context, antecedents, consequent, sufficiency, necessity, family,
            path, roles,
        )
        (self.rules if roles is None else self.cases).append((keyword, rule))
        return i

    def parse_context(self, i: int) -> tuple[tuple[Atom, ...], int]:
        if self.texts[i] != "context":
            return (), i
        return self.parse_atoms(i + 1, "after 'context'")

    def parse_precedent(self, i: int) -> int:
        keyword = i
        atom, i = self.parse_atom(i + 1)
        i = self.expect(i, "from", "after the precedent's conclusion atom")
        path, i = self.parse_path(i)
        i = self.expect(i, "tnorm", "in the precedent declaration")
        family, i = self.parse_family(i)
        i = self.expect(i, ";", "after the precedent declaration")
        self.links.append((keyword, PrecedentLink(atom.predicate, path, family)))
        return i

    # -- pass two ----------------------------------------------------

    def resolve_strength(self, value: float | _Label, what: str) -> float:
        if isinstance(value, _Label):
            if value.name not in self.lexicon:
                raise self.tokens.error(
                    f"unknown lexicon label {value.name!r} for {what}", value.token
                )
            return self.lexicon[value.name]
        return value

    def build(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        library = kb.case_library
        library.paths = set(self.taxonomy)
        error = self.tokens.error
        for read, table in ((self.rules, kb.rules), (self.cases, library.templates)):
            for keyword, item in read:
                kind = self.texts[keyword]
                owner = f"{kind} {item.identifier}"
                try:
                    sufficiency = self.resolve_strength(item.sufficiency, owner)
                    necessity = self.resolve_strength(item.necessity, owner)
                    if kind == "case" and not library.has_path(item.path):
                        raise error(
                            f"case {item.identifier!r} filed under undeclared path "
                            f"{format_path(item.path)}",
                            keyword + 3,  # the path, after ``case ID path``
                        )
                    if item.identifier in table:
                        raise error(f"{kind} {item.identifier!r} declared twice", keyword)
                except ParseError as err:
                    self.errors.append(err)
                    continue
                table[item.identifier] = item._replace(sufficiency=sufficiency, necessity=necessity)
        links = kb.precedent_links
        for keyword, link in self.links:
            if link.target_predicate in links:
                self.errors.append(error(
                    f"predicate {link.target_predicate!r} already has a precedent link", keyword
                ))
                continue
            links[link.target_predicate] = link
        built = self.atoms.values()
        kb.atoms = dict(zip(built, built))
        return kb


# -- the declaration path ------------------------------------------
#
# The patterns read exactly what ``render_kb`` writes: single spaces,
# the "\n" and the two- and five-space indents of ``_render_rule_or_case``,
# and numbers for strengths.  They are ASCII, and each word in them is
# followed by a space, punctuation or "\n", which no token holds, so each
# piece ends where the lexer's token ends.  An atom is taken as the text
# between its parentheses, which ``_ATOM_BODY`` checks once per distinct
# text.  A text that holds '#' or ``lexicon`` goes to the token parser
# before any pattern compiles.

_PATH = rf"({_ID}(?:/{_ID})*)"
_ATOM = r"\([^()]*\)"
_BREAK = "\n     "  # between two premises: a line break, then the first one's indent
_CONTEXT = rf"context ({_ATOM}(?: {_ATOM})*)"
# ``rule ID [path P] [context A..] GRADING { if A.. then A }`` or
# ``case ID path P GRADING { roles ?v.. [context A..] if A.. then A }``,
# told apart after the match, as ``_KbParser.parse_rule_or_case`` does.
_RULE_OR_CASE = (
    rf"(rule|case) ({_ID})(?: path {_PATH})?(?: {_CONTEXT})?"
    rf" tnorm ({_ID}) suff ({_NUM}) nec ({_NUM}) \{{\n"
    rf"(?:  roles((?: {_VAR})*)\n(?:  {_CONTEXT}\n)?)?"
    rf"  if ({_ATOM}(?:{_BREAK}{_ATOM})*)\n  then \(([^()]*)\)\n\}}\n\n?"
)
_TAXONOMY = rf"taxonomy {_PATH};\n\n?"
_PRECEDENT = rf"precedent \(({_ID})\) from {_PATH} tnorm ({_ID});\n\n?"
_ATOM_BODY = rf"{_ID}(?: (?:{_ID}|{_VAR}))*"


class _Unvouched(Exception):
    """Text the declaration path leaves to the token parser."""


class _Atoms(dict):
    """One ``Atom`` per distinct atom of a parse, keyed by the text between
    its parentheses, shared as the token parser shares its atoms."""

    def __init__(self) -> None:
        self.body = re.compile(_ATOM_BODY, re.ASCII).fullmatch

    def __missing__(self, inner: str) -> Atom:
        if self.body(inner) is None:
            raise _Unvouched
        predicate, *arguments = inner.split(" ")
        atom = self[inner] = tuple.__new__(Atom, (predicate, tuple(arguments)))
        return atom

    def run(self, text: str, gap: str = " ") -> tuple[Atom, ...]:
        """The atoms of a run of parenthesised atoms, ``gap`` between each
        two: no atom holds a parenthesis, so each ``)gap(`` is a join."""
        return tuple(map(self.__getitem__, text[1:-1].split(f"){gap}(")))


def _declared_kb(text: str) -> KnowledgeBase | None:
    """The knowledge base in ``text``, one declaration per pattern match,
    or None at the first thing the patterns cannot vouch for."""
    if "#" in text or "lexicon" in text:
        return None
    try:
        return _read_kb(text)
    except _Unvouched:
        return None


def _read_kb(text: str) -> KnowledgeBase:
    rule_or_case = re.compile(_RULE_OR_CASE, re.ASCII).match
    matchers = {
        "r": rule_or_case, "c": rule_or_case, "t": re.compile(_TAXONOMY, re.ASCII).match,
        "p": re.compile(_PRECEDENT, re.ASCII).match,
    }
    families = {family.label: family for family in TNormFamily}
    new = tuple.__new__
    kb = KnowledgeBase()
    rules, library, links = kb.rules, kb.case_library, kb.precedent_links
    templates = library.templates
    atoms = _Atoms()
    run = atoms.run
    pos, end = 0, len(text)
    while pos < end:
        first = text[pos]
        m = matchers[first](text, pos) if first in matchers else None
        if m is None:
            raise _Unvouched
        pos = m.end()
        if first == "r" or first == "c":
            kind, ident, path, header, label, suff, nec, roles, body, antecedents, consequent = (
                m.groups()
            )
            # The pattern reads no sign, so a strength is at least 0.
            sufficiency, necessity, family = float(suff), float(nec), families.get(label)
            if sufficiency > 1.0 or necessity > 1.0 or family is None:
                raise _Unvouched
            path = tuple(path.split("/")) if path else ()
            if kind == "rule":
                if roles is not None or ident in rules:
                    raise _Unvouched
                table = rules
            else:
                if not path or header is not None or roles is None or ident in templates:
                    raise _Unvouched
                table, header, roles = templates, body, tuple(roles.split())
            context = run(header) if header else ()
            premises = run(antecedents, _BREAK)
            head = atoms[consequent]
            table[ident] = new(
                Rule, (ident, context, premises, head, sufficiency, necessity, family, path, roles)
            )
        elif first == "t":
            library.paths.add(tuple(m[1].split("/")))
        elif m[1] in links or m[3] not in families:
            raise _Unvouched
        else:
            links[m[1]] = new(PrecedentLink, (m[1], tuple(m[2].split("/")), families[m[3]]))
    if not all(library.has_path(case.path) for case in templates.values()):
        raise _Unvouched
    built = atoms.values()
    kb.atoms = dict(zip(built, built))
    return kb


def parse_kb(text: str, source_name: str = "<input>") -> KnowledgeBase:
    """Parse a knowledge-base file: by the declaration path where it
    vouches for the text, by the token parser otherwise.

    Raises ParseError for a single problem, ParseFailure listing all of
    them when recovery found several.
    """
    kb = _declared_kb(text)
    if kb is not None:
        return kb
    return _token_kb(text, source_name)


def _token_kb(text: str, source_name: str = "<input>") -> KnowledgeBase:
    """``parse_kb`` by the token parser, which reports every error."""
    parser = _KbParser(tokenize(text, source_name))
    parser.parse_file()
    kb = parser.build()
    if parser.errors:
        if len(parser.errors) == 1:
            raise parser.errors[0]
        raise ParseFailure(parser.errors)
    return kb


class _WorldParser(_Parser):
    def parse_file(self, policy: ConflictPolicy) -> World:
        texts = self.texts
        i = self.expect(0, "world", "to start a world file")
        i = self.expect_kind(i, _IDENT, "naming the world")
        world = World(identifier=texts[i - 1])
        i = self.expect(i, "{", "to open the world body")
        while texts[i] != "}":
            word = texts[i]
            if word == "roles":
                i = self.parse_roles(i + 1, world)
            elif word == "fact":
                i = self.parse_fact(i, world, policy)
            elif word == "askable":
                i = self.expect_kind(i + 1, _IDENT, "naming the askable predicate")
                world.askables.add(texts[i - 1])
                i = self.expect(i, ";", "after the askable declaration")
            else:
                raise self.error(
                    f"expected 'roles', 'fact', or 'askable', found {self.describe(i)}", i
                )
        self.expect_kind(i + 1, _EOF, "after the world body")
        return world

    def parse_roles(self, i: int, world: World) -> int:
        texts = self.texts
        while self.kinds[i] == _ROLEVAR:
            var = texts[i]
            j = self.expect(i + 1, "=", f"after role {var}")
            j = self.expect_kind(j, _IDENT, f"as the binding of {var}")
            if var in world.roles:
                raise self.error(f"role {var} bound twice", j, i)
            world.roles[var] = texts[j - 1]
            i = j
        return self.expect(i, ";", "after the role bindings")

    def parse_fact(self, i: int, world: World, policy: ConflictPolicy) -> int:
        keyword = i
        atom, i = self.parse_atom(i + 1)
        interval, i = self.parse_interval(i)
        source, i = self.parse_source(i)
        i = self.expect(i, ";", "after the fact")
        try:
            ground = substitute(atom, world.roles)
        except UnboundRoleError as err:
            raise self.error(f"fact mentions unbound role: {err}", i, keyword) from None
        assert_evidence(world, ground, interval, source or "asserted", policy)
        return i


def parse_world(
    text: str,
    source_name: str = "<input>",
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> World:
    """Parse a world file by the token parser, which reports every error.
    Conflicting sources surface per ``policy``."""
    return _WorldParser(tokenize(text, source_name)).parse_file(policy)


def parse_goal(text: str, source_name: str = "<goal>") -> tuple[Atom, bool]:
    """Parse a query goal: an atom, optionally wrapped in ``(not ...)``.

    Returns the atom and whether the query is negated.
    """
    parser = _Parser(tokenize(text, source_name))
    i = parser.expect(0, "(", "to open the goal")
    negated = parser.texts[i] == "not"
    if negated:
        atom, i = parser.parse_atom(i + 1)
        i = parser.expect(i, ")", "to close the negation")
    else:
        atom, i = parser.parse_atom_body(i, "goal")
    parser.expect_kind(i, _EOF, "after the goal")
    return atom, negated


def parse_interval_text(text: str, source_name: str = "<interval>") -> CertaintyInterval:
    parser = _Parser(tokenize(text, source_name))
    interval, i = parser.parse_interval(0)
    parser.expect_kind(i, _EOF, "after the interval")
    return interval


def parse_evidence_text(
    text: str, source_name: str = "<input>"
) -> tuple[Atom, CertaintyInterval, str | None]:
    """Parse ``(atom) [l, u] @source`` with the source part optional."""
    parser = _Parser(tokenize(text, source_name))
    atom, i = parser.parse_atom(0)
    interval, i = parser.parse_interval(i)
    source, i = parser.parse_source(i)
    parser.expect_kind(i, _EOF, "after the evidence")
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


_FIELDS = (attrgetter("consequent"), attrgetter("context"), attrgetter("antecedents"))
_HEAD = itemgetter(slice(0, 1))


def _word(text: str) -> bool:
    """True if ``text`` is one or more of the characters ``\\w``, '.' and
    '-' that the token pieces continue a word with: ``str.isalnum`` is
    what ``\\w`` matches, '_' aside."""
    return text.isalnum() or text.replace("_", "a").replace(".", "a").replace("-", "a").isalnum()


def _writable(identifiers: set[str], variables: set[str]) -> bool:
    """True if each identifier reads back as one identifier token (``_ID``,
    or the lexer's branch for a word that starts outside ASCII with a
    letter) and each variable as one role variable (``_VAR``): each
    distinct name once, and the characters of all at once."""
    heads = "".join(map(_HEAD, identifiers))
    return (
        len(heads) == len(identifiers)  # no name is empty
        and (not heads or heads.replace("_", "a").isalpha() and _word("".join(identifiers)))
        and all(name[:1] == "?" and _word(name[1:]) for name in variables)
    )


def _refuse_unwritable(identifiers: set[str], variables: set[str]) -> None:
    """Raise DomainError naming the first name, in sorted order, that
    would not read back as the one token it stands for."""
    if _writable(identifiers, variables):
        return
    for name in sorted(identifiers):
        if not _writable({name}, set()):
            raise DomainError(f"cannot render {name!r}: it does not read back as one identifier")
    for name in sorted(variables):
        if not _writable(set(), {name}):
            raise DomainError(f"cannot render {name!r}: it does not read back as one role variable")


def _kb_names(kb: KnowledgeBase) -> tuple[set[str], set[str]]:
    """The identifiers and the role variables ``render_kb`` writes; each
    distinct argument tuple is read once."""
    items = [*kb.rules.values(), *kb.case_library.templates.values()]
    consequent, context, antecedents = _FIELDS
    atoms = [*map(consequent, items), *chain(*map(context, items), *map(antecedents, items))]
    # Not a set of atoms: equal atoms built apart compare through ``Atom.__eq__``.
    arguments = set(chain.from_iterable(set(map(itemgetter(1), atoms))))
    variables = {name for name in arguments if name[:1] == "?"}
    variables.update(chain.from_iterable(filter(None, map(attrgetter("roles"), items))))
    links = kb.precedent_links.values()
    identifiers = arguments - variables
    identifiers.update(
        map(itemgetter(0), atoms),
        map(attrgetter("identifier"), items),
        map(attrgetter("target_predicate"), links),
        chain.from_iterable(kb.case_library.paths),
        chain.from_iterable(map(attrgetter("path"), items)),
        chain.from_iterable(map(attrgetter("path"), links)),
    )
    return identifiers, variables


def _world_names(world: World) -> tuple[set[str], set[str]]:
    """``_kb_names`` for ``render_world``: a fact's atom is ground, so each
    of its arguments is an identifier."""
    facts = world.facts
    identifiers = {world.identifier, *world.roles.values(), *world.askables}
    identifiers.update(
        map(itemgetter(0), facts),
        chain.from_iterable(map(itemgetter(1), facts)),
        chain.from_iterable(map(attrgetter("evidence"), facts.values())),
    )
    return identifiers, set(world.roles)


def _render_rule_or_case(item: Rule) -> str:
    """A rule's context goes in its header; a case's roles and context open its body."""
    head = ["case" if item.roles is not None else "rule", item.identifier]
    if item.roles is not None or item.path:
        head.append(f"path {format_path(item.path)}")
    body = []
    context = ["context " + " ".join(str(a) for a in item.context)] if item.context else []
    if item.roles is None:
        head += context
    else:
        body.append(("  roles " + " ".join(item.roles)).rstrip())
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
    inlined), and ``parse_kb(render_kb(kb))`` equals ``kb``; ``validate``
    reports a case or link at the taxonomy root, which renders as ``/``.
    The declaration path reads exactly this text, and every other text
    goes to the token parser.  Raises DomainError, naming the first in
    sorted order, if a name would not read back as the one identifier or
    role variable it is.
    """
    _refuse_unwritable(*_kb_names(kb))
    blocks: list[str] = []
    taxonomy = sorted(kb.case_library.paths)
    if taxonomy:
        blocks.append("\n".join(f"taxonomy {format_path(p)};" for p in taxonomy))
    for table in (kb.rules, kb.case_library.templates):
        blocks.extend(_render_rule_or_case(table[identifier]) for identifier in sorted(table))
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
    """Canonical text for a world: one fact line per (atom, source).

    Raises DomainError as ``render_kb`` does."""
    _refuse_unwritable(*_world_names(world))
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
