"""Backward and forward inference over certainty intervals.

A query walks rule and precedent support for a goal depth-first on an
explicit stack, so a chain may be as deep as its KB; a premise already
on the stack is a cycle, raised as its atom path.  It evaluates
premises as sub-goals, detaches each support path through its rule's
strength, aggregates the parallel paths, and reconciles the result with
any stored evidence about the goal itself.  The rules for a goal, and
the case templates its precedent link instantiates, come from one index
grounded in the world's roles, built once per session: each rule's
consequent, context and premises are bound there once, not per
derivation, and a matched case fires exactly as a rule does.  Every
step is kept as a proof node so answers can be explained.  One goal
table maps each derived goal to its proof and to the stored atoms and
sub-goals it read: the session answers a goal it already holds from
the table, and belief revision keeps the table's edges reversed and
walks them to invalidate exactly what an update touches.

Context screening (``context_passes``) is the cheap gate in front of
all of this: a rule or case with a context only participates when the
world's stored values for its ground context atoms clear the activation
threshold.  Screening reads, it never proves; an expensive derivation
chain cannot hide inside a context check.  Case retrieval in ``cbr``
screens through the same gate.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Generator, Mapping, NamedTuple, Optional, Sequence

from ._records import Record
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
from .errors import DerivationCycleError, DomainError, UnboundRoleError
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
    "ground_context",
    "context_passes",
    "QuerySession",
    "prove",
    "forward_saturate",
    "explain",
    "proof_to_dict",
    "result_to_dict",
]

Asker = Callable[[Atom], Optional[CertaintyInterval]]


class QueryConfig(Record):
    """Knobs for one query run.

    ``context_threshold`` is the activation level a rule's context must
    reach; ``conflict_policy`` decides whether inverted intervals raise
    or degrade to ignorance; ``interactive`` allows prompting for
    askable facts.
    """

    __slots__ = ("context_threshold", "conflict_policy", "interactive")

    def __init__(
        self, context_threshold: float = 0.5,
        conflict_policy: ConflictPolicy = ConflictPolicy.STRICT, interactive: bool = False,
    ) -> None:
        if not 0.0 <= context_threshold <= 1.0:  # nan fails too
            raise DomainError(f"context threshold {context_threshold!r} outside [0, 1]")
        self.context_threshold = context_threshold
        self.conflict_policy = conflict_policy
        self.interactive = interactive


class ProofNode(Record):
    """One step of a derivation.

    kind is one of ``fact``, ``rule-instance``, ``case-instance``,
    ``precedent``, ``aggregation``.  provenance names the step's origin:
    a rule or case identifier, a taxonomy path, a fact's sources, or the
    aggregation family.  premise_interval is set on the instance kinds,
    where a premise conjunction was pushed through a strength to give
    ``result``.
    """

    __slots__ = ("goal", "kind", "result", "provenance", "premise_interval", "children")

    def __init__(
        self, goal: Atom, kind: str, result: CertaintyInterval, provenance: str,
        premise_interval: CertaintyInterval | None = None, children: tuple[ProofNode, ...] = (),
    ) -> None:
        self.goal = goal
        self.kind = kind
        self.result = result
        self.provenance = provenance
        self.premise_interval = premise_interval
        self.children = children


class GoalDependencies(Record):
    """One entry of the goal table: a derived goal's proof and what it read.

    node: the goal's proof, whose ``result`` is its interval; atoms:
    stored atoms looked up (the goal's own fact slot, context atoms
    consulted during screening); subgoals: premises recursed into.
    These are the only dependency edges there are: belief revision
    keeps them reversed, as reader edges, and walks those to find every
    goal an update reaches.  Every goal that reads no sub-goal shares one
    empty ``subgoals`` set.
    """

    __slots__ = ("node", "atoms", "subgoals")

    def __init__(self, node: ProofNode, atoms: frozenset[Atom], subgoals: frozenset[Atom]) -> None:
        self.node = node
        self.atoms = atoms
        self.subgoals = subgoals


class QueryResult(Record):
    """One proved goal, with its proof and the session's notes so far.

    ``derived`` lists the goals this query evaluated afresh, in the
    order their evaluations finished; goals answered from the session's
    goal table are not in it.  ``graph`` is that goal table, shared,
    not copied.
    """

    __slots__ = ("goal", "interval", "proof", "diagnostics", "derived", "graph")
    _fields = __slots__[:-1]  # the goal table stays out of == and repr

    def __init__(
        self, goal: Atom, interval: CertaintyInterval, proof: ProofNode, diagnostics: list[str],
        derived: list[Atom], graph: dict[Atom, GoalDependencies],
    ) -> None:
        self.goal = goal
        self.interval = interval
        self.proof = proof
        self.diagnostics = diagnostics
        self.derived = derived
        self.graph = graph

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


_NO_SUBGOALS: frozenset[Atom] = frozenset()


def ground_context(
    context: tuple[Atom, ...], roles: Mapping[str, str]
) -> tuple[tuple[Atom, ...], UnboundRoleError | None]:
    """A context with its roles bound, for ``context_passes``.

    Binding stops at the first atom with a role ``roles`` leaves unbound:
    the atoms before it are returned with that role's error.  Such a
    context is about some other situation, so its rule or case is
    inactive; the gate still reads the atoms that were bound.
    """
    ground = []
    for atom in context:
        try:
            ground.append(substitute(atom, roles))
        except UnboundRoleError as err:
            return tuple(ground), err
    return tuple(ground), None


def context_passes(
    context: tuple[Atom, ...],
    world: World,
    config: QueryConfig,
    reads: set[Atom] | None = None,
) -> bool:
    """The screening gate that admits rules and case templates alike.

    ``context`` is ground (``ground_context`` binds it).  Screening is a
    shallow read of the world's stored values, never a proof, and grades
    the joint context with the most liberal conjunction (min), so the
    gate fails on the weakest atom alone, not on the interaction of
    several weak ones.  Every context atom is added to ``reads``: context
    reads are dependencies too, and revision must see them.
    """
    if not context:
        return True
    if reads is not None:
        reads.update(context)
    threshold = config.context_threshold
    for atom in context:
        if lookup(world, atom).lower < threshold:
            return False
    return True


class RuleInstance(NamedTuple):
    """One rule or linked case template as one world's roles ground it.

    ``context`` is the ground context, as ``ground_context`` gives it, and
    ``premises`` are the ground antecedents.  ``error`` is the first role
    the world leaves unbound, in the consequent, then the context, then
    the antecedents; a rule with an error never fires.  ``premises`` is
    None when the error is in the consequent, so the rule concludes
    nothing here (its ``context`` is then empty), or in the context, so
    the rule is inactive whatever the facts.
    """

    rule: Rule | CaseTemplate
    context: tuple[Atom, ...]
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
    every rule would.  Each instance's context is grounded here too,
    beside its premises, so a derivation binds no role; only the gate's
    reads of the context's facts wait for evaluation time, since facts
    change between queries.  The index holds one object per distinct
    ground atom, so the goal table, keyed by the premises it derives,
    mostly finds a key by identity rather than by comparing atoms.

    The index is valid only for the KB and role bindings it was built
    from.
    """

    __slots__ = ("concluding", "inactive", "_unbound")

    def __init__(self, kb: KnowledgeBase, roles: dict[str, str]):
        self.concluding: dict[Atom, list[RuleInstance]] = {}
        self.inactive: list[RuleInstance] = []
        self._unbound: dict[str, list[RuleInstance]] = {}
        atoms_of: dict[str, list[Atom]] = {}
        one: dict[Atom, Atom] = {}

        def intern(atom: Atom) -> Atom:
            return one.setdefault(atom, atom)

        linked = (kb.linked_templates(link) for link in kb.precedent_links.values())
        for rule in chain(kb.rules.values(), *linked):
            predicate = rule.consequent.predicate
            try:
                consequent = intern(substitute(rule.consequent, roles))
            except UnboundRoleError as err:
                instance = RuleInstance(rule, (), None, err)
                self.inactive.append(instance)
                self._unbound.setdefault(predicate, []).append(instance)
                for atom in atoms_of.get(predicate, ()):
                    self.concluding[atom].append(instance)
                continue
            context, error = ground_context(rule.context, roles)
            context = tuple(map(intern, context))
            if error is not None:
                premises = None
            else:
                try:
                    premises = tuple(intern(substitute(a, roles)) for a in rule.antecedents)
                except UnboundRoleError as err:
                    premises, error = (), err
            bucket = self.concluding.get(consequent)
            if bucket is None:
                bucket = self.concluding[consequent] = list(self._unbound.get(predicate, ()))
                atoms_of.setdefault(predicate, []).append(consequent)
            bucket.append(RuleInstance(rule, context, premises, error))

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
        for rule, _, _, error in self._index.inactive:
            self._inactive(rule, error)
        return {goal: self.evaluate(goal) for goal in self._index.concluding}

    # -- internals ---------------------------------------------------

    def _evaluate(self, atom: Atom) -> ProofNode:
        """Drive ``_derive`` for ``atom`` and each premise it yields;
        ``stack`` holds each goal under way with the atoms and sub-goals
        it has read and its derivation, outermost first."""
        goals = self._goals
        known = goals.get(atom)
        if known is not None:
            return known.node
        atoms: set[Atom] = set()
        subgoals: set[Atom] = set()
        send = self._derive(atom, atoms, subgoals).send
        stack = {atom: (atoms, subgoals, send)}
        node = None
        while True:
            try:
                premise = send(node)
            except StopIteration as done:
                node = done.value
                goal, (atoms, subgoals, _) = stack.popitem()
                goals[goal] = GoalDependencies(
                    node,
                    frozenset(atoms),
                    frozenset(subgoals) if subgoals else _NO_SUBGOALS,
                )
                self.derived.append(goal)
                if not stack:
                    return node
                send = next(reversed(stack.values()))[2]
                continue
            if premise in stack:
                path = [*stack, premise][list(stack).index(premise):]
                raise DerivationCycleError("derivation cycle: " + " -> ".join(map(str, path)))
            atoms = set()
            subgoals = set()
            send = self._derive(premise, atoms, subgoals).send
            stack[premise] = (atoms, subgoals, send)
            # A generator just started takes None.
            node = None

    def _derive(
        self, atom: Atom, atoms: set[Atom], subgoals: set[Atom]
    ) -> Generator[Atom, ProofNode, ProofNode]:
        """Derive ``atom`` and add the stored atoms and the sub-goals it
        reads to ``atoms`` and ``subgoals``.  A premise the goal table
        holds is answered from it; each other premise is yielded to
        ``_evaluate``, which sends back its proof."""
        world = self.world
        config = self.config
        goals = self._goals

        fact = world.facts.get(atom)
        if fact is None and self._may_ask(atom):
            answer = self.asker(atom)
            self._asked.add(atom)
            if answer is not None:
                assert_evidence(world, atom, answer, "user", config.conflict_policy)
                fact = world.facts.get(atom)
        atoms.add(atom)

        paths: list[ProofNode] = []
        cases: list[ProofNode] = []
        families: list[TNormFamily] = []

        for rule, context, premises, error in self._index.rules_for(atom):
            # Screen first, even a rule that cannot fire: what the gate
            # reads is a dependency whatever the verdict.  An unbound role
            # in the consequent or the context is noted always, one in an
            # antecedent only past the gate.
            passes = context_passes(context, world, config, atoms)
            if premises is None or (passes and error is not None):
                self._inactive(rule, error)
                continue
            if not passes:
                continue
            child_nodes = []
            premise_values = []
            for premise in premises:
                subgoals.add(premise)
                known = goals.get(premise)
                sub = known.node if known is not None else (yield premise)
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
            subject=atom,
            diagnostics=self.diagnostics,
        )
        children = list(paths)
        if fact_node is not None:
            # The stored fact joins as one more independent source.
            final = consensus(
                [derived, fact.effective],
                config.conflict_policy,
                labels=["derived support", f"stored fact ({fact_node.provenance})"],
                subject=atom,
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
    the line a pair's span starts at and copies that span when the pair
    recurs, so the cost beyond the output's own size follows the
    distinct nodes, not the tree.

    The line list is sized first and allocated once: grown by appends, its
    freed blocks make the time per call on a large proof vary by process.
    """
    sizes = _tree_sizes(result.proof)
    lines = [""] * (sizes[id(result.proof)] + len(result.diagnostics))
    starts: dict[tuple[int, int], int] = {}
    pos = 0
    stack = [(result.proof, 0)]
    while stack:
        node, depth = stack.pop()
        start = starts.setdefault((id(node), depth), pos)
        if start < pos:  # the pair recurs: copy the span it rendered
            n = sizes[id(node)]
            lines[pos:pos + n] = lines[start:start + n]
            pos += n
        else:
            lines[pos] = _proof_line(node, "  " * depth)
            pos += 1
            stack.extend((child, depth + 1) for child in reversed(node.children))
    lines[pos:] = [f"note: {note}" for note in result.diagnostics]
    return "\n".join(lines)


def _tree_sizes(root: ProofNode) -> dict[int, int]:
    """Lines each node of ``root`` takes when walked as a tree, by ``id``."""
    sizes: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            sizes[id(node)] = 1 + sum(sizes[id(child)] for child in node.children)
        elif id(node) not in sizes:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
    return sizes


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
