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

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, NamedTuple

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


@dataclass(slots=True)
class Fact:
    """Evidence about one ground atom, kept per source."""

    atom: Atom
    evidence: dict[str, CertaintyInterval]
    effective: CertaintyInterval

    def sources(self) -> list[str]:
        return sorted(self.evidence)


@dataclass(frozen=True, slots=True)
class Rule:
    """A qualified implication.

    ``context`` gates whether the rule participates at all in a given
    world; ``antecedents`` are the premises evaluated once it does.
    ``sufficiency`` grades how far a confirmed premise confirms the
    conclusion, ``necessity`` how far a refuted premise refutes it (a
    hard logical rule is sufficiency 1, necessity 0).  ``family`` picks
    the conjunction used for both the premises and the detachment.
    ``rule_class`` is an optional taxonomy path used for bookkeeping.
    """

    identifier: str
    context: tuple[Atom, ...]
    antecedents: tuple[Atom, ...]
    consequent: Atom
    sufficiency: float
    necessity: float
    family: TNormFamily
    rule_class: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise DomainError(f"rule {self.identifier} has no antecedents")


Path = tuple[str, ...]


def parse_path(text: str) -> Path:
    """Split ``defense/anti-trust`` into its segments."""
    parts = tuple(p for p in text.strip().split("/") if p)
    if not parts:
        raise DomainError(f"empty taxonomy path {text!r}")
    return parts


def format_path(path: Path) -> str:
    return "/".join(path) if path else "/"


@dataclass(frozen=True, slots=True)
class CaseTemplate:
    """A decided case, generalised over its role variables."""

    identifier: str
    path: Path
    roles: tuple[str, ...]
    context: tuple[Atom, ...]
    antecedents: tuple[Atom, ...]
    consequent: Atom
    sufficiency: float
    necessity: float
    family: TNormFamily

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise DomainError(f"case {self.identifier} has no premises")


@dataclass(frozen=True, slots=True)
class PrecedentLink:
    """Marks a predicate as arguable from precedent.

    The link instantiates the templates filed under ``path`` that
    conclude ``target_predicate`` (``KnowledgeBase.linked_templates``);
    the engine combines the contributions of those that fire for a goal
    with ``family``'s dual conorm.  At most one link per predicate.
    """

    target_predicate: str
    path: Path
    family: TNormFamily


@dataclass(slots=True)
class CaseLibrary:
    """Case templates filed under declared taxonomy paths."""

    paths: set[Path] = field(default_factory=set)
    templates: dict[str, CaseTemplate] = field(default_factory=dict)

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


@dataclass(slots=True)
class World:
    """One concrete situation a knowledge base is applied to."""

    identifier: str
    roles: dict[str, str] = field(default_factory=dict)
    facts: dict[Atom, Fact] = field(default_factory=dict)
    askables: set[str] = field(default_factory=set)
    epoch: int = 0
    diagnostics: list[str] = field(default_factory=list)

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
        subject=str(atom),
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
        subject=str(atom),
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


@dataclass
class KnowledgeBase:
    """Rules plus the case library and its precedent links."""

    rules: dict[str, Rule] = field(default_factory=dict)
    case_library: CaseLibrary = field(default_factory=CaseLibrary)
    precedent_links: dict[str, PrecedentLink] = field(default_factory=dict)

    def linked_templates(self, link: PrecedentLink) -> list[CaseTemplate]:
        """The case templates ``link`` instantiates, in ``templates_at`` order:
        those filed under its path that conclude its predicate."""
        return [
            template
            for template in self.case_library.templates_at(link.path)
            if template.consequent.predicate == link.target_predicate
        ]


def predicate_dependencies(kb: KnowledgeBase) -> dict[str, set[str]]:
    """Which predicates each predicate's derivation reads as premises.

    Rule consequents depend on their antecedent predicates; a predicate
    carrying a precedent link additionally depends on the premises of
    every case template the link can instantiate.  Context atoms are
    excluded: screening reads stored values only and never recurses.
    """
    deps: dict[str, set[str]] = {}
    for rule in kb.rules.values():
        bucket = deps.setdefault(rule.consequent.predicate, set())
        bucket.update(a.predicate for a in rule.antecedents)
    for link in kb.precedent_links.values():
        bucket = deps.setdefault(link.target_predicate, set())
        for template in kb.linked_templates(link):
            bucket.update(a.predicate for a in template.antecedents)
    return deps


def derivation_order(kb: KnowledgeBase) -> list[str]:
    """All predicates in dependency order, premises before conclusions.

    Raises CycleError (from graphlib) on a cyclic knowledge base; run
    ``validate`` first for a reported rather than raised answer.
    """
    deps = predicate_dependencies(kb)
    return list(TopologicalSorter(deps).static_order())


@dataclass(slots=True)
class ValidationReport:
    """Everything that would make a knowledge base unsafe to query.

    An empty report (``ok()``) means every derivation terminates and
    all numeric fields are in range.
    """

    cycles: list[list[str]] = field(default_factory=list)
    range_errors: list[str] = field(default_factory=list)
    role_errors: list[str] = field(default_factory=list)
    path_errors: list[str] = field(default_factory=list)

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

    try:
        derivation_order(kb)
    except CycleError as err:
        # graphlib reports the cycle as [a, ..., a].
        cycle = [str(node) for node in err.args[1]]
        report.cycles.append(cycle)
    return report
