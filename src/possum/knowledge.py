"""Knowledge model: atoms, rules, cases, worlds, and the knowledge base.

A knowledge base is generic: rules and case templates mention role
variables (``?raider``).  A world instantiates it: roles get bound to
constants, facts carry per-source evidence intervals, and askable
predicates mark what the user may be prompted for.  The same knowledge
base can be run against many worlds.

The case model sits beside the rules.  A case template is a rule filed
under a taxonomy path in the case library, with the same sufficiency
and necessity grading and a list of the roles it generalises over; a
precedent link marks a predicate as arguable from the templates under
one path.

Facts keep every source's interval separately and reconcile them into
one effective interval by consensus at assertion time; inference later
combines *derived* support by aggregation.  Keeping the two combination
steps at these two moments is a deliberate layering: source disagreement
is a property of the evidence and surfaces immediately, path
reinforcement is a property of the reasoning and surfaces per query.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple

from ._records import FrozenRecord, Record
from .calculus import CertaintyInterval, ConflictPolicy, TNormFamily, TOTAL_IGNORANCE, consensus
from .errors import DomainError, UnboundRoleError

__all__ = [
    "Atom",
    "Fact",
    "Rule",
    "CaseTemplate",
    "PrecedentLink",
    "CaseLibrary",
    "parse_path",
    "format_path",
    "World",
    "KnowledgeBase",
    "ValidationReport",
    "substitute",
    "assert_evidence",
    "retract_evidence",
    "lookup",
    "predicate_dependencies",
    "validate",
]


def is_role_variable(token: str) -> bool:
    return token.startswith("?")


class Atom(NamedTuple):
    """A predicate applied to zero or more arguments.

    Arguments are plain symbols; those starting with ``?`` are role
    variables awaiting a world binding.  Atoms are immutable and usable
    as dict keys.  An atom is stored as the tuple of its two fields and
    hashes as that tuple, in C, since the engine and belief revision key
    every table by atom.  It equals only another atom, never a plain
    tuple.
    """

    predicate: str
    arguments: tuple[str, ...] = ()

    def variables(self) -> frozenset[str]:
        return frozenset(a for a in self.arguments if is_role_variable(a))

    def is_ground(self) -> bool:
        return not any(is_role_variable(a) for a in self.arguments)

    def __eq__(self, other: object) -> bool:
        return type(other) is Atom and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not Atom or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return "(" + " ".join((self.predicate,) + self.arguments) + ")"


def substitute(atom: Atom, roles: Mapping[str, str]) -> Atom:
    """Replace role variables by their bindings.

    Raises UnboundRoleError on the first variable with no binding; a
    partially bound atom is never returned.
    """
    if atom.is_ground():
        return atom
    out = []
    for arg in atom.arguments:
        if is_role_variable(arg):
            try:
                out.append(roles[arg])
            except KeyError:
                raise UnboundRoleError(arg, str(atom)) from None
        else:
            out.append(arg)
    return Atom(atom.predicate, tuple(out))


class Fact(Record):
    """Evidence about one ground atom, kept per source."""

    __slots__ = ("atom", "evidence", "effective")

    def __init__(
        self, atom: Atom, evidence: dict[str, CertaintyInterval], effective: CertaintyInterval
    ) -> None:
        self.atom = atom
        self.evidence = evidence
        self.effective = effective

    def sources(self) -> list[str]:
        return sorted(self.evidence)


class Rule(FrozenRecord):
    """A qualified implication.

    ``context`` gates whether the rule participates at all in a given
    world; ``antecedents`` are the premises evaluated once it does.
    ``sufficiency`` grades how far a confirmed premise confirms the
    conclusion, ``necessity`` how far a refuted premise refutes it (a
    hard logical rule is sufficiency 1, necessity 0).  ``family`` picks
    the conjunction used for both the premises and the detachment.
    ``rule_class`` is an optional taxonomy path used for bookkeeping.
    """

    __slots__ = (
        "identifier", "context", "antecedents", "consequent",
        "sufficiency", "necessity", "family", "rule_class",
    )

    def __init__(
        self, identifier: str, context: tuple[Atom, ...], antecedents: tuple[Atom, ...],
        consequent: Atom, sufficiency: float, necessity: float, family: TNormFamily,
        rule_class: tuple[str, ...] = (),
    ) -> None:
        if not antecedents:
            raise DomainError(f"rule {identifier} has no antecedents")
        # ``_fill`` unrolled, since every rule a KB parses builds one.
        set_id, set_ctx, set_ante, set_cons, set_suff, set_nec, set_fam, set_cls = self._setters
        set_id(self, identifier)
        set_ctx(self, context)
        set_ante(self, antecedents)
        set_cons(self, consequent)
        set_suff(self, sufficiency)
        set_nec(self, necessity)
        set_fam(self, family)
        set_cls(self, rule_class)


Path = tuple[str, ...]


def parse_path(text: str) -> Path:
    """Split ``defense/anti-trust`` into its segments."""
    parts = tuple(p for p in text.strip().split("/") if p)
    if not parts:
        raise DomainError(f"empty taxonomy path {text!r}")
    return parts


def format_path(path: Path) -> str:
    return "/".join(path) if path else "/"


class CaseTemplate(FrozenRecord):
    """A decided case, generalised over its role variables."""

    __slots__ = (
        "identifier", "path", "roles", "context", "antecedents",
        "consequent", "sufficiency", "necessity", "family",
    )

    def __init__(
        self, identifier: str, path: Path, roles: tuple[str, ...], context: tuple[Atom, ...],
        antecedents: tuple[Atom, ...], consequent: Atom, sufficiency: float, necessity: float,
        family: TNormFamily,
    ) -> None:
        if not antecedents:
            raise DomainError(f"case {identifier} has no premises")
        self._fill(
            identifier, path, roles, context, antecedents, consequent, sufficiency, necessity,
            family,
        )


class PrecedentLink(FrozenRecord):
    """Marks a predicate as arguable from precedent.

    The link instantiates the templates filed under ``path`` that
    conclude ``target_predicate`` (``KnowledgeBase.linked_templates``);
    the engine combines the contributions of those that fire for a goal
    with ``family``'s dual conorm.  At most one link per predicate.
    """

    __slots__ = ("target_predicate", "path", "family")

    def __init__(self, target_predicate: str, path: Path, family: TNormFamily) -> None:
        self._fill(target_predicate, path, family)


class CaseLibrary(Record):
    """Case templates filed under declared taxonomy paths."""

    __slots__ = ("paths", "templates")

    def __init__(
        self, paths: set[Path] | None = None, templates: dict[str, CaseTemplate] | None = None
    ) -> None:
        self.paths = set() if paths is None else paths
        self.templates = {} if templates is None else templates

    def declare_path(self, path: Path) -> None:
        self.paths.add(tuple(path))

    def add(self, template: CaseTemplate) -> None:
        if template.identifier in self.templates:
            raise DomainError(f"duplicate case identifier {template.identifier}")
        self.templates[template.identifier] = template

    def has_path(self, path: Path) -> bool:
        """True for the root, any declared path, and any ancestor of one."""
        if not path:
            return True
        return any(declared[: len(path)] == tuple(path) for declared in self.paths)

    def templates_at(self, path: Path) -> list[CaseTemplate]:
        """Templates filed at or below a node, ordered by (path, identifier)."""
        node = tuple(path)
        found = [t for t in self.templates.values() if t.path[: len(node)] == node]
        found.sort(key=lambda t: (t.path, t.identifier))
        return found


class World(Record):
    """One concrete situation a knowledge base is applied to."""

    __slots__ = ("identifier", "roles", "facts", "askables", "epoch", "diagnostics")

    def __init__(
        self, identifier: str, roles: dict[str, str] | None = None,
        facts: dict[Atom, Fact] | None = None, askables: set[str] | None = None,
        epoch: int = 0, diagnostics: list[str] | None = None,
    ) -> None:
        self.identifier = identifier
        self.roles = {} if roles is None else roles
        self.facts = {} if facts is None else facts
        self.askables = set() if askables is None else askables
        self.epoch = epoch
        self.diagnostics = [] if diagnostics is None else diagnostics

    def copy(self) -> "World":
        """Independent deep copy; used for what-if exploration."""
        twin = World(
            identifier=self.identifier,
            roles=dict(self.roles),
            askables=set(self.askables),
            epoch=self.epoch,
            diagnostics=list(self.diagnostics),
        )
        for atom, fact in self.facts.items():
            twin.facts[atom] = Fact(atom, dict(fact.evidence), fact.effective)
        return twin


def assert_evidence(
    world: World,
    atom: Atom,
    interval: CertaintyInterval,
    source: str,
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> bool:
    """Record one source's interval for a fact and re-reconcile.

    Returns True when the fact's effective interval actually changed
    (the world epoch advances only then).  Under strict policy a source
    conflict raises before anything is mutated.
    """
    if not atom.is_ground():
        raise DomainError(f"cannot assert evidence for non-ground atom {atom}")
    existing = world.facts.get(atom)
    evidence = dict(existing.evidence) if existing else {}
    evidence[source] = interval
    labels = sorted(evidence)
    effective = consensus(
        [evidence[s] for s in labels],
        policy,
        labels=labels,
        subject=atom,
        diagnostics=world.diagnostics,
    )
    # Compute-then-commit: a strict conflict above leaves the world untouched.
    if existing is None:
        world.facts[atom] = Fact(atom, evidence, effective)
        world.epoch += 1
        return True
    changed = effective != existing.effective
    existing.evidence = evidence
    existing.effective = effective
    if changed:
        world.epoch += 1
    return changed


def retract_evidence(
    world: World,
    atom: Atom,
    source: str,
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> bool:
    """Withdraw one source's interval; drops the fact when none remain."""
    fact = world.facts.get(atom)
    if fact is None or source not in fact.evidence:
        return False
    evidence = dict(fact.evidence)
    del evidence[source]
    if not evidence:
        del world.facts[atom]
        world.epoch += 1
        return True
    labels = sorted(evidence)
    effective = consensus(
        [evidence[s] for s in labels],
        policy,
        labels=labels,
        subject=atom,
        diagnostics=world.diagnostics,
    )
    changed = effective != fact.effective
    fact.evidence = evidence
    fact.effective = effective
    if changed:
        world.epoch += 1
    return changed


def lookup(world: World, atom: Atom) -> CertaintyInterval:
    """Effective interval for an atom; total ignorance when unrecorded."""
    fact = world.facts.get(atom)
    return fact.effective if fact is not None else TOTAL_IGNORANCE


class KnowledgeBase(Record):
    """Rules plus the case library and its precedent links."""

    __slots__ = ("rules", "case_library", "precedent_links")

    def __init__(
        self, rules: dict[str, Rule] | None = None, case_library: CaseLibrary | None = None,
        precedent_links: dict[str, PrecedentLink] | None = None,
    ) -> None:
        self.rules = {} if rules is None else rules
        self.case_library = CaseLibrary() if case_library is None else case_library
        self.precedent_links = {} if precedent_links is None else precedent_links

    def linked_templates(self, link: PrecedentLink) -> list[CaseTemplate]:
        """The case templates ``link`` instantiates, in ``templates_at`` order:
        those filed under its path that conclude its predicate."""
        return [
            template
            for template in self.case_library.templates_at(link.path)
            if template.consequent.predicate == link.target_predicate
        ]


def predicate_dependencies(kb: KnowledgeBase) -> dict[str, dict[str, None]]:
    """Which predicates each predicate's derivation reads as premises.

    Rule consequents depend on their antecedent predicates; a predicate
    carrying a precedent link also depends on the premises of every case
    template the link instantiates.  Context atoms are excluded:
    screening reads stored values only and never recurses.  The map is
    in the engine's reading order: keys by the first rule, then linked
    template, that concludes each predicate, as ``engine.RuleIndex``
    orders goals; each value an ordered set (a dict of ``None``) of
    premise predicates, once each, in antecedent order.
    """
    deps: dict[str, dict[str, None]] = {}
    linked = (kb.linked_templates(link) for link in kb.precedent_links.values())
    for rule in chain(kb.rules.values(), *linked):
        premises = deps.setdefault(rule.consequent.predicate, {})
        for atom in rule.antecedents:
            premises[atom.predicate] = None
    return deps


def _first_cycle(deps: dict[str, dict[str, None]]) -> list[str] | None:
    """The first cycle a depth-first walk over ``deps`` meets, as ``[a, ..., a]``.

    Roots follow the keys and premises the values: on a role-free KB this
    is ``QuerySession.saturate``'s walk, and the cycle is the one it raises.
    """
    done: set[str | None] = set()
    # Each predicate under way, outermost first, with the premises it has
    # yet to read; the roots are the premises of ``None``.
    stack: dict[str | None, Iterator[str]] = {None: iter(deps)}
    premises = stack[None]
    while True:
        for premise in premises:
            if premise in stack:
                path = list(stack)
                return path[path.index(premise):] + [premise]
            if premise in deps and premise not in done:
                premises = stack[premise] = iter(deps[premise])
                break
        else:
            done.add(stack.popitem()[0])
            if not stack:
                return None
            premises = next(reversed(stack.values()))


class ValidationReport(Record):
    """Everything that would make a knowledge base unsafe to query.

    An empty report (``ok()``) means every derivation terminates and
    all numeric fields are in range.
    """

    __slots__ = ("cycles", "range_errors", "role_errors", "path_errors")

    def __init__(
        self, cycles: list[list[str]] | None = None, range_errors: list[str] | None = None,
        role_errors: list[str] | None = None, path_errors: list[str] | None = None,
    ) -> None:
        self.cycles = [] if cycles is None else cycles
        self.range_errors = [] if range_errors is None else range_errors
        self.role_errors = [] if role_errors is None else role_errors
        self.path_errors = [] if path_errors is None else path_errors

    def ok(self) -> bool:
        return not (self.cycles or self.range_errors or self.role_errors or self.path_errors)

    def messages(self) -> list[str]:
        out = []
        for cycle in self.cycles:
            out.append("derivation cycle: " + " -> ".join(cycle))
        out.extend(self.range_errors)
        out.extend(self.role_errors)
        out.extend(self.path_errors)
        return out


def validate(kb: KnowledgeBase) -> ValidationReport:
    """Static safety check for a knowledge base.

    Reports derivation cycles (including those routed through precedent
    links), sufficiency/necessity values outside the unit interval,
    case-template variables missing from the template's role list, and
    taxonomy paths that were never declared.
    """
    report = ValidationReport()
    library = kb.case_library

    for kind, items in (("rule", kb.rules.values()), ("case", library.templates.values())):
        for item in items:
            for name, value in (("sufficiency", item.sufficiency), ("necessity", item.necessity)):
                if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                    report.range_errors.append(
                        f"{kind} {item.identifier}: {name} {value!r} outside [0, 1]"
                    )

    for template in library.templates.values():
        owner = f"case {template.identifier}"
        declared = set(template.roles)
        used: set[str] = set()
        for atom in template.context + template.antecedents + (template.consequent,):
            used |= atom.variables()
        for var in sorted(used - declared):
            report.role_errors.append(f"{owner}: role {var} is not declared")
        if not library.has_path(template.path):
            report.path_errors.append(
                f"{owner}: path {format_path(template.path)} is not in the taxonomy"
            )

    for link in kb.precedent_links.values():
        if not library.has_path(link.path):
            report.path_errors.append(
                f"precedent for {link.target_predicate}: "
                f"path {format_path(link.path)} is not in the taxonomy"
            )

    cycle = _first_cycle(predicate_dependencies(kb))
    if cycle is not None:
        report.cycles.append(cycle)
    return report
