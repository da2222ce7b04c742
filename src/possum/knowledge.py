"""Knowledge model: atoms, rules, cases, worlds, and the knowledge base.

A knowledge base is generic: rules and cases mention role variables
(``?raider``).  A world instantiates it: roles get bound to constants,
facts carry per-source evidence intervals, and askable predicates mark
what the user may be prompted for.  The same knowledge base can be run
against many worlds.

A case is a rule: one ``Rule`` record, with ``roles`` set to the role
variables it generalises over, filed under its taxonomy ``path`` in the
case library rather than among the rules (``CaseTemplate`` builds one).
A precedent link marks a predicate as arguable from the cases under one
path.

Atoms, rules, precedent links and rule instances are tuple records
(``typing.NamedTuple``; ``_records``): a parse builds one per atom and
declaration, each in one C call, and the engine keys its tables by atom,
hashed in C.  Each but a rule instance equals only a record of its own
class.  The ``Rule`` constructor refuses a rule or case with no
antecedents, which a KB built in code may hold; ``dsl``'s declaration
path builds records with ``tuple.__new__`` straight from text its
patterns vouch for.  Worlds, facts and the knowledge base itself are
mutable slotted records.

A knowledge base is compiled once, free of any world
(``KnowledgeBase.compiled``): its rules and linked templates grouped by
conclusion in reading order over the KB's atom table, which role
variables each rule mentions, and the predicate dependencies and
strength findings ``validate`` reports.  Every world's rule index,
``validate`` and the revision tracker read that one form, which the KB
keeps until a rule, case or precedent link changes.

Facts keep every source's interval separately and reconcile them into
one effective interval by consensus at assertion time; inference later
combines *derived* support by aggregation.  Keeping the two combination
steps at these two moments is a deliberate layering: source disagreement
is a property of the evidence and surfaces immediately, path
reinforcement is a property of the reasoning and surfaces per query.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import attrgetter, is_, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from ._records import Record, TupleRecord
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
    "RuleInstance",
    "CompiledKB",
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
            value = roles.get(arg)
            if value is None:  # no KeyError to chain: a kept error holds no frame
                raise UnboundRoleError(arg, str(atom))
            out.append(value)
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


Path = tuple[str, ...]


_RuleFields = NamedTuple("_RuleFields", [
    ("identifier", str), ("context", tuple[Atom, ...]), ("antecedents", tuple[Atom, ...]),
    ("consequent", Atom), ("sufficiency", float), ("necessity", float), ("family", TNormFamily),
    ("path", Path), ("roles", tuple[str, ...] | None),
])


class Rule(TupleRecord, _RuleFields):
    """A qualified implication, or a decided case.

    ``context`` gates whether the rule participates at all in a given
    world; ``antecedents`` are the premises evaluated once it does.
    ``sufficiency`` grades how far a confirmed premise confirms the
    conclusion, ``necessity`` how far a refuted premise refutes it (a
    hard logical rule is sufficiency 1, necessity 0).  ``family`` picks
    the conjunction used for both the premises and the detachment.
    ``path`` is a taxonomy path: bookkeeping on a rule, where a case is
    filed.  ``roles`` is None on a rule; a case (``CaseTemplate``) lists
    the role variables it generalises over, possibly none.
    """

    __slots__ = ()

    def __new__(
        cls, identifier: str, context: tuple[Atom, ...], antecedents: tuple[Atom, ...],
        consequent: Atom, sufficiency: float, necessity: float, family: TNormFamily,
        path: Path = (), roles: tuple[str, ...] | None = None,
    ) -> Rule:
        if not antecedents:
            if roles is None:
                raise DomainError(f"rule {identifier} has no antecedents")
            raise DomainError(f"case {identifier} has no premises")
        return super().__new__(
            cls, identifier, context, antecedents, consequent, sufficiency, necessity, family,
            path, roles,
        )


def CaseTemplate(
    identifier: str, path: Path, roles: tuple[str, ...], context: tuple[Atom, ...],
    antecedents: tuple[Atom, ...], consequent: Atom, sufficiency: float, necessity: float,
    family: TNormFamily,
) -> Rule:
    """A decided case: the ``Rule`` with these ``roles``, filed under ``path``."""
    return Rule(
        identifier, context, antecedents, consequent, sufficiency, necessity, family, path, roles
    )


def parse_path(text: str) -> Path:
    """Split ``defense/anti-trust`` into its segments."""
    parts = tuple(p for p in text.strip().split("/") if p)
    if not parts:
        raise DomainError(f"empty taxonomy path {text!r}")
    return parts


def format_path(path: Path) -> str:
    return "/".join(path) if path else "/"


_LinkFields = NamedTuple(
    "_LinkFields", [("target_predicate", str), ("path", Path), ("family", TNormFamily)]
)


class PrecedentLink(TupleRecord, _LinkFields):
    """Marks a predicate as arguable from precedent.

    The link instantiates the templates filed under ``path`` that
    conclude ``target_predicate`` (``KnowledgeBase.linked_templates``);
    the engine combines the contributions of those that fire for a goal
    with ``family``'s dual conorm.  At most one link per predicate.
    """

    __slots__ = ()


class CaseLibrary(Record):
    """Cases filed under declared taxonomy paths: ``Rule`` records with
    ``roles`` set, keyed by identifier in ``templates``."""

    __slots__ = ("paths", "templates")

    def __init__(
        self, paths: set[Path] | None = None, templates: dict[str, Rule] | None = None
    ) -> None:
        self.paths = set() if paths is None else paths
        self.templates = {} if templates is None else templates

    def declare_path(self, path: Path) -> None:
        self.paths.add(tuple(path))

    def add(self, template: Rule) -> None:
        if template.identifier in self.templates:
            raise DomainError(f"duplicate case identifier {template.identifier}")
        self.templates[template.identifier] = template

    def has_path(self, path: Path) -> bool:
        """True for the root, any declared path, and any ancestor of one."""
        if not path:
            return True
        return any(declared[: len(path)] == tuple(path) for declared in self.paths)

    def templates_at(self, path: Path) -> list[Rule]:
        """Templates filed at or below a node, ordered by (path, identifier)."""
        node = tuple(path)
        found = [t for t in self.templates.values() if t.path[: len(node)] == node]
        found.sort(key=lambda t: (t.path, t.identifier))
        return found


class World(Record):
    """One concrete situation a knowledge base is applied to.

    ``epoch`` counts the changes to any fact's effective interval;
    ``edits`` counts every change to the stored evidence, a source
    added or changed without moving an interval included, which a proof
    shows in the sources it names.  ``log``, the change log, holds one
    entry per edited atom, ordered by last edit: the edit count at its
    last edit and at its last move of the effective interval, so a
    reader that kept an edit count finds what changed since at its end.
    ``edits`` and ``log`` stay out of ``==`` and ``repr``.

    ``conflicts`` holds the note on each fact whose sources conflict
    under the lenient policy.  It is the world's current state, not a
    log: reconciling a fact's evidence again replaces or drops its
    note.  ``diagnostics`` lists those notes, and stands for
    ``conflicts`` in ``==`` and ``repr``.
    """

    __slots__ = ("identifier", "roles", "facts", "askables", "epoch", "conflicts", "edits", "log")
    _fields = ("identifier", "roles", "facts", "askables", "epoch", "diagnostics")

    def __init__(
        self, identifier: str, roles: dict[str, str] | None = None,
        facts: dict[Atom, Fact] | None = None, askables: set[str] | None = None,
        epoch: int = 0, conflicts: dict[Atom, str] | None = None, edits: int = 0,
        log: dict[Atom, tuple[int, int]] | None = None,
    ) -> None:
        self.identifier = identifier
        self.roles = {} if roles is None else roles
        self.facts = {} if facts is None else facts
        self.askables = set() if askables is None else askables
        self.epoch = epoch
        self.conflicts = {} if conflicts is None else conflicts
        self.edits = edits
        self.log = {} if log is None else log

    @property
    def diagnostics(self) -> list[str]:
        return list(self.conflicts.values())

    def copy(self) -> "World":
        """Independent deep copy; used for what-if exploration."""
        twin = World(
            identifier=self.identifier,
            roles=dict(self.roles),
            askables=set(self.askables),
            epoch=self.epoch,
            conflicts=dict(self.conflicts),
            edits=self.edits,
            log=dict(self.log),
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
    (the world epoch advances only then; the edit count and the log
    advance whenever the source's interval is new).  Under strict
    policy a source conflict raises before anything is mutated.
    """
    if not atom.is_ground():
        raise DomainError(f"cannot assert evidence for non-ground atom {atom}")
    existing = world.facts.get(atom)
    evidence = dict(existing.evidence) if existing else {}
    evidence[source] = interval
    # Compute-then-commit: a strict conflict raises before the world is touched.
    effective = _reconcile(world, atom, evidence, policy)
    if existing is None:
        world.facts[atom] = Fact(atom, evidence, effective)
        _log_edit(world, atom, True)
        return True
    new = existing.evidence.get(source) != interval
    changed = effective != existing.effective
    existing.evidence = evidence
    existing.effective = effective
    if new or changed:
        _log_edit(world, atom, changed)
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
        world.conflicts.pop(atom, None)
        changed = True
    else:
        effective = _reconcile(world, atom, evidence, policy)
        changed = effective != fact.effective
        fact.evidence = evidence
        fact.effective = effective
    _log_edit(world, atom, changed)
    return changed


def _log_edit(world: World, atom: Atom, moved: bool) -> None:
    """Count one edit to ``atom``'s evidence, and the move of its
    effective interval if ``moved``, and put its log entry last."""
    world.edits += 1
    edit = world.edits
    if moved:
        world.epoch += 1
    _, last_move = world.log.pop(atom, (0, 0))
    world.log[atom] = (edit, edit if moved else last_move)


def _reconcile(
    world: World, atom: Atom, evidence: dict[str, CertaintyInterval], policy: ConflictPolicy
) -> CertaintyInterval:
    """The consensus of a fact's evidence.  The world's note on the fact
    is replaced by the note on this consensus, or dropped when it has
    none; a strict conflict raises before the world is touched."""
    labels = sorted(evidence)
    notes: list[str] = []
    effective = consensus(
        [evidence[s] for s in labels], policy, labels=labels, subject=atom, diagnostics=notes
    )
    if notes:
        world.conflicts[atom] = notes[0]
    else:
        world.conflicts.pop(atom, None)
    return effective


def lookup(world: World, atom: Atom) -> CertaintyInterval:
    """Effective interval for an atom; total ignorance when unrecorded."""
    fact = world.facts.get(atom)
    return fact.effective if fact is not None else TOTAL_IGNORANCE


class KnowledgeBase(Record):
    """Rules plus the case library and its precedent links.

    ``atoms`` is the KB's atom table, one object per distinct atom: the
    parser hands over the atoms it built, and a KB built in code fills
    it when it is first indexed.  ``compiled`` gives the KB's
    world-free form; both stay out of ``==`` and ``repr``.
    """

    __slots__ = ("rules", "case_library", "precedent_links", "atoms", "_compiled")
    _fields = ("rules", "case_library", "precedent_links")

    def __init__(
        self, rules: dict[str, Rule] | None = None, case_library: CaseLibrary | None = None,
        precedent_links: dict[str, PrecedentLink] | None = None,
    ) -> None:
        self.rules = {} if rules is None else rules
        self.case_library = CaseLibrary() if case_library is None else case_library
        self.precedent_links = {} if precedent_links is None else precedent_links
        self.atoms: dict[Atom, Atom] = {}
        self._compiled: CompiledKB | None = None

    def linked_templates(self, link: PrecedentLink) -> list[Rule]:
        """The case templates ``link`` instantiates, in ``templates_at`` order:
        those filed under its path that conclude its predicate."""
        return [
            template
            for template in self.case_library.templates_at(link.path)
            if template.consequent.predicate == link.target_predicate
        ]

    def indexed_rules(self) -> Iterator[Rule]:
        """The rules the engine reads, in its reading order: ``rules``, then
        the templates each precedent link instantiates, link by link."""
        linked = (self.linked_templates(link) for link in self.precedent_links.values())
        return chain(self.rules.values(), *linked)

    def compiled(self) -> CompiledKB:
        """The KB's compiled form, built again if any rule, case template
        or precedent link was added, replaced or removed since the last."""
        form = self._compiled
        if form is None or not form.current(self):
            form = self._compiled = CompiledKB(self)
        return form


class RuleInstance(NamedTuple):
    """One rule or linked case, as the compiled form holds it or as one
    world's roles ground it (``engine.RuleIndex``); ``rule.roles`` is
    set on a case.

    ``context`` is the context the gate screens, and ``premises`` are
    the antecedents: what a derivation reads, and no more.  ``error`` is
    the first role the world leaves unbound, in the consequent, then the
    context, then the antecedents; a rule with an error never fires, and
    its ``premises`` are empty.  An error in the consequent or the
    context leaves ``context`` empty too: the rule is about some other
    situation, nothing screens it, and a derivation of its goal always
    notes it.  One in an antecedent keeps the ground context, and the
    rule is noted only past the gate.
    """

    rule: Rule
    context: tuple[Atom, ...]
    premises: tuple[Atom, ...]
    error: UnboundRoleError | None


_CONSEQUENT = attrgetter("consequent")
_CONTEXT = attrgetter("context")
_ANTECEDENTS = attrgetter("antecedents")
_SUFFICIENCY = attrgetter("sufficiency")
_NECESSITY = attrgetter("necessity")
_ARGUMENTS = itemgetter(1)


class CompiledKB:
    """A knowledge base compiled once, free of any world, for every world,
    ``validate`` and the revision tracker to read.

    The KB keeps it until a rule, case template or precedent link is
    added, replaced or removed.  All three are immutable records, so the
    identity of each, in order, is the snapshot that tells.

    Building it walks ``kb.indexed_rules()`` once for what ``validate``
    reads: ``dependencies``, ``predicate_dependencies``'s map, and
    ``range_errors``, the strengths of rules and templates outside the
    unit interval.  ``grouped`` adds, once, what a rule index reads, so
    a KB that is validated and never indexed (one built in code to be
    rendered, say) is never interned.  ``instances`` holds one
    ``RuleInstance`` per rule and linked template, in reading order,
    and ``consequents`` their consequents.  Their atoms are the KB's own
    (``KnowledgeBase.atoms``), one object per distinct atom: a parsed
    KB's rules keep their own tuples, and a KB built in code is interned
    there, so equal atoms are one object however the KB was made.
    ``groups`` maps each consequent to its instances in reading order,
    keys by the first rule that concludes each.  ``roles`` maps each
    role variable to the positions in ``instances`` of the rules that
    mention it, in reading order; with none, ``groups`` is every world's
    rule index.  Nothing here is copied for its readers, so none may
    change it.
    """

    __slots__ = (
        "_snapshot", "_pending", "instances", "consequents", "groups", "roles", "dependencies",
        "range_errors",
    )

    def __init__(self, kb: KnowledgeBase) -> None:
        templates = kb.case_library.templates
        self._snapshot = (
            tuple(kb.rules.values()), tuple(templates.values()), tuple(kb.precedent_links.values())
        )
        rules = list(kb.indexed_rules())
        consequents = list(map(_CONSEQUENT, rules))
        premises = list(map(_ANTECEDENTS, rules))
        deps: dict[str, dict[str, None]] = {}
        for head, antecedents in zip(consequents, premises):
            reads = deps.get(head.predicate)
            if reads is None:
                reads = deps[head.predicate] = {}
            for atom in antecedents:
                reads[atom.predicate] = None
        self.dependencies = deps
        self.range_errors = _range_errors(self._snapshot[0] + self._snapshot[1])
        self._pending = (kb.atoms, rules, consequents, premises)

    def grouped(self) -> CompiledKB:
        """This form with ``instances``, ``consequents``, ``groups`` and
        ``roles``, built on the first call."""
        if self._pending is None:
            return self
        table, rules, consequents, premises = self._pending
        contexts = list(map(_CONTEXT, rules))
        every = [*consequents, *chain.from_iterable(contexts), *chain.from_iterable(premises)]
        if not all(map(is_, map(table.get, every), every)):
            # Built in code, or edited since the parse: intern every atom
            # and cut the run back into the rules' tuples.  Keyed by its
            # fields as a plain tuple, an atom compares in C, not through
            # ``Atom.__eq__``.
            by_fields = dict(zip(map(tuple, table), table))
            interned = map(by_fields.setdefault, map(tuple, every), every)
            consequents = list(islice(interned, len(consequents)))
            contexts = [atoms and tuple(islice(interned, len(atoms))) for atoms in contexts]
            premises = [tuple(islice(interned, len(atoms))) for atoms in premises]
            table.update(zip(by_fields.values(), by_fields.values()))
        self.instances = list(
            map(tuple.__new__, repeat(RuleInstance), zip(rules, contexts, premises, repeat(None)))
        )
        self.consequents = consequents
        groups: dict[Atom, list[RuleInstance]] = {}
        for head, instance in zip(consequents, self.instances):
            group = groups.get(head)
            if group is None:
                groups[head] = [instance]
            else:
                group.append(instance)
        self.groups = groups

        roles: dict[str, list[int]] = {}
        variables: dict[Atom, list[str]] = {}  # each atom with a role, its roles
        for atom in filter(_ARGUMENTS, table):
            mentioned = [arg for arg in atom.arguments if is_role_variable(arg)]
            if mentioned:
                variables[atom] = mentioned
        if variables:
            mentions = enumerate(zip(consequents, contexts, premises))
            for position, (head, context, antecedents) in mentions:
                for atom in (head, *context, *antecedents):
                    for role in variables.get(atom, ()):
                        positions = roles.setdefault(role, [])
                        if positions[-1:] != [position]:
                            positions.append(position)
        self.roles = roles
        self._pending = None
        return self

    def current(self, kb: KnowledgeBase) -> bool:
        """True while ``kb`` holds the rules, templates and links this was built from."""
        rules, templates, links = self._snapshot
        return (
            _same(rules, kb.rules)
            and _same(templates, kb.case_library.templates)
            and _same(links, kb.precedent_links)
        )


def _same(snapshot: tuple, table: dict) -> bool:
    return len(snapshot) == len(table) and all(map(is_, snapshot, table.values()))


def _range_errors(items: tuple[Rule, ...]) -> list[str]:
    """The strengths of ``items`` outside [0, 1], or not numbers at all."""
    values = [*map(_SUFFICIENCY, items), *map(_NECESSITY, items)]
    # The common case, checked in C: floats and ints only, none nan
    # (which the sum carries) and none outside [0, 1].
    if set(map(type, values)) <= {float, int}:
        total = sum(values)
        if total == total and min(values, default=0) >= 0 and max(values, default=1) <= 1:
            return []
    errors = []
    for item in items:
        kind = "rule" if item.roles is None else "case"
        for name, value in (("sufficiency", item.sufficiency), ("necessity", item.necessity)):
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                errors.append(f"{kind} {item.identifier}: {name} {value!r} outside [0, 1]")
    return errors


def predicate_dependencies(kb: KnowledgeBase) -> dict[str, dict[str, None]]:
    """Which predicates each predicate's derivation reads as premises.

    Rule consequents depend on their antecedent predicates; a predicate
    carrying a precedent link also depends on the premises of every case
    template the link instantiates.  Context atoms are excluded:
    screening reads stored values only and never recurses.  The map is
    in the engine's reading order (``KnowledgeBase.indexed_rules``): keys
    by the first rule or linked template that concludes each predicate,
    as ``engine.RuleIndex`` orders goals; each value an ordered set (a
    dict of ``None``) of premise predicates, once each, in antecedent
    order.  It is the compiled form's own map: read it, do not change it.
    """
    return kb.compiled().dependencies


def _first_cycle(deps: dict[str, dict[str, None]]) -> list[str] | None:
    """The first cycle a depth-first walk over ``deps`` meets, as ``[a, ..., a]``.

    Roots follow the keys and premises the values: on a role-free KB this
    is ``QuerySession.saturate``'s walk, and the cycle is the one it raises.
    A predicate whose premises are all settled (walked already, or
    concluded by no rule) is settled without a walk: no cycle passes
    through it.
    """
    settled: set[str | None] = set(chain.from_iterable(deps.values()))
    settled.difference_update(deps)
    # Each predicate under way, outermost first, with the premises it has
    # yet to read; the roots are the premises of ``None``.
    stack: dict[str | None, Iterator[str]] = {None: iter(deps)}
    premises = stack[None]
    while True:
        for premise in premises:
            if premise in settled:
                continue
            if premise in stack:
                path = list(stack)
                return path[path.index(premise):] + [premise]
            reads = deps[premise]
            if settled.issuperset(reads):
                settled.add(premise)
                continue
            premises = stack[premise] = iter(reads)
            break
        else:
            settled.add(stack.popitem()[0])
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
    records filed in the wrong table (a case, with ``roles``, among the
    rules, or a rule in the case library), case-template variables
    missing from the template's role list, and taxonomy paths that were
    never declared.  The root holds no case or link: ``render_kb`` would
    write it as ``/``, which no parser reads.
    """
    form = kb.compiled()
    report = ValidationReport(range_errors=list(form.range_errors))
    library = kb.case_library

    for rule in kb.rules.values():
        if rule.roles is not None:
            report.role_errors.append(f"case {rule.identifier}: has roles but is in the rules")
    for template in library.templates.values():
        if template.roles is None:
            owner = f"rule {template.identifier}"
            report.role_errors.append(f"{owner}: has no roles but is in the case library")
            continue
        owner = f"case {template.identifier}"
        atoms = template.context + template.antecedents + (template.consequent,)
        used = set().union(*map(Atom.variables, atoms))
        for var in sorted(used.difference(template.roles)):
            report.role_errors.append(f"{owner}: role {var} is not declared")
        if not (template.path and library.has_path(template.path)):
            report.path_errors.append(
                f"{owner}: path {format_path(template.path)} is not in the taxonomy"
            )

    for link in kb.precedent_links.values():
        if not (link.path and library.has_path(link.path)):
            report.path_errors.append(
                f"precedent for {link.target_predicate}: "
                f"path {format_path(link.path)} is not in the taxonomy"
            )

    cycle = _first_cycle(form.dependencies)
    if cycle is not None:
        report.cycles.append(cycle)
    return report
