"""Backward and forward inference over certainty intervals.

A query walks rule and precedent support for a goal depth-first on an
explicit stack, so a chain may be as deep as its KB; a premise already
on the stack is a cycle, raised as its atom path.  It evaluates
premises as sub-goals, detaches each support path through its rule's
strength, aggregates the parallel paths, and reconciles the result with
any stored evidence about the goal itself.  The rules for a goal, and
the case templates its precedent link instantiates, come from one index
grounded in the world's roles, built once per session: a matched case
fires exactly as a rule does.  Every step is kept as a proof node so
answers can be explained.  One goal table maps each derived goal to its
proof and to the stored atoms and sub-goals it read: the session
answers a goal it already holds from the table, and belief revision
keeps the table's edges reversed and walks them to invalidate exactly
what an update touches.

Context screening (``context_passes``) is the cheap gate in front of
all of this: a rule or case with a context only participates when the
world's stored values for the context atoms clear the activation
threshold.  Screening reads, it never proves; an expensive derivation
chain cannot hide inside a context check.  Case retrieval in ``cbr``
screens through the same gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Generator, NamedTuple, Optional, Sequence

from .calculus import (
    CertaintyInterval,
    ConflictPolicy,
    TNormFamily,
    TOTAL_IGNORANCE,
    aggregate,
    antecedent_eval,
    consensus,
    detach,
)
from .errors import DerivationCycleError, UnboundRoleError
from .knowledge import (
    Atom,
    CaseTemplate,
    KnowledgeBase,
    Rule,
    World,
    assert_evidence,
    format_path,
    lookup,
    substitute,
)

__all__ = [
    "QueryConfig",
    "ProofNode",
    "QueryResult",
    "GoalDependencies",
    "RuleInstance",
    "RuleIndex",
    "context_passes",
    "QuerySession",
    "prove",
    "forward_saturate",
    "explain",
    "proof_to_dict",
    "result_to_dict",
]

Asker = Callable[[Atom], Optional[CertaintyInterval]]


@dataclass(slots=True)
class QueryConfig:
    """Knobs for one query run.

    ``context_threshold`` is the activation level a rule's context must
    reach; ``conflict_policy`` decides whether inverted intervals raise
    or degrade to ignorance; ``interactive`` allows prompting for
    askable facts.
    """

    context_threshold: float = 0.5
    conflict_policy: ConflictPolicy = ConflictPolicy.STRICT
    interactive: bool = False


@dataclass(slots=True)
class ProofNode:
    """One step of a derivation.

    kind is one of ``fact``, ``rule-instance``, ``case-instance``,
    ``precedent``, ``aggregation``.  provenance names the step's origin:
    a rule or case identifier, a taxonomy path, a fact's sources, or the
    aggregation family.  premise_interval is set on the instance kinds,
    where a premise conjunction was pushed through a strength to give
    ``result``.
    """

    goal: Atom
    kind: str
    result: CertaintyInterval
    provenance: str
    premise_interval: CertaintyInterval | None = None
    children: tuple["ProofNode", ...] = ()


@dataclass(slots=True)
class GoalDependencies:
    """One entry of the goal table: a derived goal's proof and what it read.

    node: the goal's proof, whose ``result`` is its interval; atoms:
    stored atoms looked up (the goal's own fact slot, context atoms
    consulted during screening); subgoals: premises recursed into.
    These are the only dependency edges there are: belief revision
    keeps them reversed, as reader edges, and walks those to find every
    goal an update reaches.
    """

    node: ProofNode
    atoms: frozenset[Atom]
    subgoals: frozenset[Atom]


@dataclass(slots=True)
class QueryResult:
    """One proved goal, with its proof and the session's notes so far.

    ``derived`` lists the goals this query evaluated afresh, in the
    order their evaluations finished; goals answered from the session's
    goal table are not in it.  ``graph`` is that goal table, shared,
    not copied.
    """

    goal: Atom
    interval: CertaintyInterval
    proof: ProofNode
    diagnostics: list[str]
    derived: list[Atom]
    graph: dict[Atom, GoalDependencies] = field(repr=False, compare=False)

    @property
    def dependencies(self) -> dict[Atom, GoalDependencies]:
        """The goal and every sub-goal it reaches, with what each read.

        Computed on access from the session's goal table, so a table
        that belief revision has purged since gives less.
        """
        out: dict[Atom, GoalDependencies] = {}
        stack = [self.goal]
        while stack:
            atom = stack.pop()
            if atom in out:
                continue
            deps = self.graph.get(atom)
            if deps is None:
                continue
            out[atom] = deps
            stack.extend(deps.subgoals)
        return out


@dataclass(slots=True)
class _Frame:
    atoms: set[Atom] = field(default_factory=set)
    subgoals: set[Atom] = field(default_factory=set)


def context_passes(
    context: tuple[Atom, ...],
    world: World,
    config: QueryConfig,
    fetch: Callable[[Atom], CertaintyInterval],
    on_unbound: Callable[[UnboundRoleError], None] | None = None,
) -> bool:
    """The screening gate that admits rules and case templates alike.

    Screening is a shallow read through ``fetch``, never a proof, and
    grades the joint context with the most liberal conjunction (min), so
    the gate fails on the weakest atom alone, not on the interaction of
    several weak ones.  A context the world cannot even bind means the
    rule or case is about some other situation: inactive, and reported
    to ``on_unbound``.
    """
    if not context:
        return True
    values = []
    for atom in context:
        try:
            ground = substitute(atom, world.roles)
        except UnboundRoleError as err:
            if on_unbound is not None:
                on_unbound(err)
            return False
        values.append(fetch(ground))
    joint = antecedent_eval(TNormFamily.T3, values)
    return joint.lower >= config.context_threshold


class RuleInstance(NamedTuple):
    """One rule or linked case template as one world's roles ground it.

    ``premises`` are the ground antecedents, or None when the consequent
    has a role the world leaves unbound, so the rule concludes nothing
    here.  ``error`` is the unbound role, in the consequent or in an
    antecedent; a rule with an error never fires.
    """

    rule: Rule | CaseTemplate
    premises: tuple[Atom, ...] | None
    error: UnboundRoleError | None


class RuleIndex:
    """The rules of one knowledge base, grounded in one world's roles.

    The rules are ``kb.rules`` followed by the case templates each
    precedent link instantiates (``kb.linked_templates``); a template is
    a rule filed in the case library, and is indexed as one.  Roles are
    bound per world and never unified, so a rule has at most
    one ground instance in a world: this is Rete's alpha memory with a
    trivial join.  ``concluding`` maps each ground consequent to the
    rules that conclude it, in that order.  ``inactive`` lists,
    in the same order, the rules whose consequent the world cannot bind;
    each ``concluding`` list also holds those of its predicate at their
    place in that order, so a derivation notes them where a scan over
    every rule would.  Contexts are left out: facts change between
    queries, so the gate reads them at evaluation time.

    The index is valid only for the KB and role bindings it was built
    from.
    """

    __slots__ = ("concluding", "inactive", "_unbound")

    def __init__(self, kb: KnowledgeBase, roles: dict[str, str]):
        self.concluding: dict[Atom, list[RuleInstance]] = {}
        self.inactive: list[RuleInstance] = []
        self._unbound: dict[str, list[RuleInstance]] = {}
        atoms_of: dict[str, list[Atom]] = {}
        linked = (kb.linked_templates(link) for link in kb.precedent_links.values())
        for rule in chain(kb.rules.values(), *linked):
            predicate = rule.consequent.predicate
            try:
                consequent = substitute(rule.consequent, roles)
            except UnboundRoleError as err:
                instance = RuleInstance(rule, None, err)
                self.inactive.append(instance)
                self._unbound.setdefault(predicate, []).append(instance)
                for atom in atoms_of.get(predicate, ()):
                    self.concluding[atom].append(instance)
                continue
            try:
                premises = tuple(substitute(a, roles) for a in rule.antecedents)
                error = None
            except UnboundRoleError as err:
                premises, error = (), err
            bucket = self.concluding.get(consequent)
            if bucket is None:
                bucket = self.concluding[consequent] = list(self._unbound.get(predicate, ()))
                atoms_of.setdefault(predicate, []).append(consequent)
            bucket.append(RuleInstance(rule, premises, error))

    def rules_for(self, atom: Atom) -> Sequence[RuleInstance]:
        """The rules a derivation of ``atom`` considers, in index order."""
        return self.concluding.get(atom) or self._unbound.get(atom.predicate, ())


class QuerySession:
    """One reasoning pass over a fixed knowledge base and world.

    Every goal the session derives goes into its goal table with its
    proof and what it read, and a goal the table holds is answered from
    it, so shared premises are proved once.  The goal table (``goals``)
    and the rule index can be supplied by a caller (the revision tracker
    does) to persist them across sessions; the caller must then purge
    the table on world updates, and rebuild the index when the KB or the
    world's roles change.  ``derived`` lists every goal the session
    evaluated afresh, and so recorded in the table, in the order their
    evaluations finished, including those of a query that raised.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        world: World,
        config: QueryConfig | None = None,
        asker: Asker | None = None,
        *,
        goals: dict[Atom, GoalDependencies] | None = None,
        index: RuleIndex | None = None,
    ):
        self.kb = kb
        self.world = world
        self.config = config or QueryConfig()
        self.asker = asker
        self.diagnostics: list[str] = []
        self.derived: list[Atom] = []
        self._goals = goals if goals is not None else {}
        self._index = index if index is not None else RuleIndex(kb, world.roles)
        self._asked: set[Atom] = set()

    def prove(self, goal: Atom) -> QueryResult:
        """Evaluate one goal; role variables are bound from the world."""
        goal = substitute(goal, self.world.roles)
        start = len(self.derived)
        node = self._evaluate(goal)
        if node.kind == "fact" and goal not in self.world.facts:
            self._note(f"no support for {goal}: answering with total ignorance")
        return QueryResult(
            goal=goal,
            interval=node.result,
            proof=node,
            diagnostics=list(self.diagnostics),
            derived=self.derived[start:],
            graph=self._goals,
        )

    def evaluate(self, atom: Atom) -> CertaintyInterval:
        """Interval for one ground sub-goal (no result wrapper)."""
        return self._evaluate(atom).result

    def saturate(self) -> dict[Atom, CertaintyInterval]:
        """Evaluate every ground conclusion in index order, the KB's.

        Rules and templates whose consequent the world cannot bind are
        noted as inactive first.  All goals share this session's goal
        table, so each sub-derivation runs once.  The result maps each
        derivable atom to the same interval a backward query for it would
        return.
        """
        for rule, _, error in self._index.inactive:
            self._inactive(rule, error)
        return {goal: self.evaluate(goal) for goal in self._index.concluding}

    # -- internals ---------------------------------------------------

    def _evaluate(self, atom: Atom) -> ProofNode:
        """Drive ``_derive`` for ``atom`` and each premise it yields
        that the goal table cannot answer; ``stack`` holds each goal
        under way with its frame and derivation, outermost first."""
        goals = self._goals
        known = goals.get(atom)
        if known is not None:
            return known.node
        frame = _Frame()
        send = self._derive(atom, frame).send
        stack = {atom: (frame, send)}
        node = None
        while True:
            try:
                premise = send(node)
            except StopIteration as done:
                node = done.value
                goal, (frame, _) = stack.popitem()
                goals[goal] = GoalDependencies(
                    node, frozenset(frame.atoms), frozenset(frame.subgoals)
                )
                self.derived.append(goal)
                if not stack:
                    return node
                _, send = next(reversed(stack.values()))
                continue
            known = goals.get(premise)
            if known is not None:
                node = known.node
                continue
            if premise in stack:
                path = [*stack, premise][list(stack).index(premise):]
                raise DerivationCycleError("derivation cycle: " + " -> ".join(map(str, path)))
            frame = _Frame()
            send = self._derive(premise, frame).send
            stack[premise] = (frame, send)
            # A generator just started takes None.
            node = None

    def _derive(self, atom: Atom, frame: _Frame) -> Generator[Atom, ProofNode, ProofNode]:
        world = self.world
        config = self.config

        fact = world.facts.get(atom)
        if fact is None and self._may_ask(atom):
            answer = self.asker(atom)
            self._asked.add(atom)
            if answer is not None:
                assert_evidence(world, atom, answer, "user", config.conflict_policy)
                fact = world.facts.get(atom)
        frame.atoms.add(atom)

        def fetch(a: Atom) -> CertaintyInterval:
            # Context reads are dependencies too: revision must see them.
            frame.atoms.add(a)
            return lookup(world, a)

        paths: list[ProofNode] = []
        cases: list[ProofNode] = []
        families: list[TNormFamily] = []

        for rule, premises, error in self._index.rules_for(atom):
            if premises is None:
                self._inactive(rule, error)
                continue
            if not context_passes(
                rule.context,
                world,
                config,
                fetch,
                on_unbound=lambda err, r=rule: self._inactive(r, err),
            ):
                continue
            if error is not None:
                self._inactive(rule, error)
                continue
            child_nodes = []
            premise_values = []
            for premise in premises:
                frame.subgoals.add(premise)
                sub = yield premise
                child_nodes.append(sub)
                premise_values.append(sub.result)
            joint = antecedent_eval(rule.family, premise_values)
            detached = detach(rule.family, rule.sufficiency, rule.necessity, joint)
            is_case = isinstance(rule, CaseTemplate)
            node = ProofNode(
                goal=atom,
                kind="case-instance" if is_case else "rule-instance",
                result=detached,
                provenance=rule.identifier,
                premise_interval=joint,
                children=tuple(child_nodes),
            )
            if is_case:
                cases.append(node)
            else:
                families.append(rule.family)
                paths.append(node)

        link = self.kb.precedent_links.get(atom.predicate)
        if link is not None:
            # The matched cases are one more support path, combined under
            # the link's family; no match reads as total ignorance.
            if cases:
                support = aggregate(
                    link.family,
                    [c.result for c in cases],
                    config.conflict_policy,
                    subject=f"precedent support for {atom}",
                    diagnostics=self.diagnostics,
                )
            else:
                self._note(f"no precedent support for {atom} under {format_path(link.path)}")
                support = TOTAL_IGNORANCE
            families.append(link.family)
            paths.append(
                ProofNode(
                    goal=atom,
                    kind="precedent",
                    result=support,
                    provenance=format_path(link.path),
                    children=tuple(cases),
                )
            )

        fact_node = None
        if fact is not None:
            fact_node = ProofNode(
                goal=atom,
                kind="fact",
                result=fact.effective,
                provenance="+".join(fact.sources()),
            )

        if not paths:
            if fact_node is None:
                return ProofNode(
                    goal=atom, kind="fact", result=TOTAL_IGNORANCE, provenance="unknown"
                )
            return fact_node

        family = TNormFamily.most_conservative(families)
        derived = aggregate(
            family,
            [p.result for p in paths],
            config.conflict_policy,
            subject=str(atom),
            diagnostics=self.diagnostics,
        )
        children = list(paths)
        if fact_node is not None:
            # The stored fact joins as one more independent source.
            final = consensus(
                [derived, fact.effective],
                config.conflict_policy,
                labels=["derived support", f"stored fact ({fact_node.provenance})"],
                subject=str(atom),
                diagnostics=self.diagnostics,
            )
            children.append(fact_node)
        else:
            final = derived
        return ProofNode(
            goal=atom,
            kind="aggregation",
            result=final,
            provenance=family.label,
            children=tuple(children),
        )

    def _may_ask(self, atom: Atom) -> bool:
        return (
            self.config.interactive
            and self.asker is not None
            and atom.predicate in self.world.askables
            and atom not in self._asked
        )

    def _note(self, message: str) -> None:
        if message not in self.diagnostics:
            self.diagnostics.append(message)

    def _inactive(self, rule: Rule | CaseTemplate, err: UnboundRoleError) -> None:
        kind = "case" if isinstance(rule, CaseTemplate) else "rule"
        self._note(f"{kind} {rule.identifier} inactive: {err}")


def prove(
    kb: KnowledgeBase,
    world: World,
    goal: Atom,
    config: QueryConfig | None = None,
    asker: Asker | None = None,
) -> QueryResult:
    """One-shot backward query; see QuerySession for repeated use."""
    return QuerySession(kb, world, config, asker).prove(goal)


def forward_saturate(
    kb: KnowledgeBase,
    world: World,
    config: QueryConfig | None = None,
) -> dict[Atom, CertaintyInterval]:
    """One-shot forward saturation; see QuerySession.saturate."""
    return QuerySession(kb, world, config).saturate()


def explain(result: QueryResult) -> str:
    """Render a proof as an indented text tree, then the session's notes.

    The tree has one line per node of the proof walked as a tree, so a
    sub-proof the goal table shares appears in full under every step
    that used it.  Each ``(node, depth)`` is formatted once: the walk keeps
    the span of lines a pair produced and copies that span when the
    pair recurs, so the cost beyond the output's own size follows the
    distinct nodes, not the tree.
    """
    lines: list[str] = []
    spans: dict[tuple[int, int], tuple[int, int]] = {}
    # (node, depth, None) renders a pair; (node, depth, start) closes the
    # span that rendering opened at line ``start``.
    stack: list[tuple[ProofNode, int, int | None]] = [(result.proof, 0, None)]
    while stack:
        node, depth, start = stack.pop()
        key = (id(node), depth)
        if start is not None:
            spans[key] = (start, len(lines))
            continue
        span = spans.get(key)
        if span is not None:
            lines += lines[span[0]:span[1]]
            continue
        stack.append((node, depth, len(lines)))
        lines.append(_proof_line(node, "  " * depth))
        for child in reversed(node.children):
            stack.append((child, depth + 1, None))
    for note in result.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _proof_line(node: ProofNode, pad: str) -> str:
    iv = str(node.result)
    if node.kind == "fact":
        return f"{pad}fact {node.goal} = {iv} via {node.provenance}"
    if node.kind == "rule-instance":
        return f"{pad}rule-instance {node.provenance}: premise {node.premise_interval} -> {iv}"
    if node.kind == "case-instance":
        return f"{pad}case-instance {node.provenance}: match {node.premise_interval} -> {iv}"
    if node.kind == "precedent":
        return f"{pad}precedent {node.provenance} = {iv}"
    return f"{pad}aggregation {node.goal} = {iv} under {node.provenance}"


def proof_to_dict(root: ProofNode) -> list[dict]:
    """The proof as a node table: one dict per distinct node.

    Nodes are numbered in preorder of their first visit, so entry 0 is
    ``root``, and ``"children"`` holds the children's entry numbers.  A
    sub-proof the goal table shares is one entry that several parents
    list, so the table's size follows the distinct nodes, not the tree.
    """
    nodes: list[ProofNode] = []
    number: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in number:
            number[id(node)] = len(nodes)
            nodes.append(node)
            stack.extend(reversed(node.children))
    table = []
    for node in nodes:
        out: dict = {
            "kind": node.kind,
            "goal": str(node.goal),
            "result": [node.result.lower, node.result.upper],
            "provenance": node.provenance,
        }
        if node.premise_interval is not None:
            out["premise"] = [node.premise_interval.lower, node.premise_interval.upper]
            out["detached"] = [node.result.lower, node.result.upper]
        if node.children:
            out["children"] = [number[id(c)] for c in node.children]
        table.append(out)
    return table


def result_to_dict(result: QueryResult) -> dict:
    """A query's answer, notes and proof as JSON-ready data.

    ``proof`` is ``proof_to_dict``'s node table, root first.
    """
    return {
        "goal": str(result.goal),
        "interval": [result.interval.lower, result.interval.upper],
        "diagnostics": list(result.diagnostics),
        "proof": proof_to_dict(result.proof),
    }
