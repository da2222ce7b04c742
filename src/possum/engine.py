"""Backward and forward inference over certainty intervals.

A query walks rule and precedent support for a goal depth-first on an
explicit stack, so a chain may be as deep as its KB; a premise already
on the stack is a cycle, raised as its atom path.  It evaluates
premises as sub-goals, detaches each support path through its rule's
strength, aggregates the parallel paths, and reconciles the result with
any stored evidence about the goal itself.  The rules for a goal, and
the case templates its precedent link instantiates, come from one index
grounded in the world's roles, built once per session from the KB's
compiled form: each rule's consequent, context and premises are bound
there once, not per derivation, only the rules that mention a role are
bound at all, and a matched case fires exactly as a rule does.  Firing
is then arithmetic alone: a step whose answer is its input (the
conjunction of one premise, the aggregate of one path, the gate of an
empty context) is not called, and a goal derived again keeps each
rule or case path whose premises are still the same proof nodes, so
only the other paths fire.  A rule with a role the world leaves
unbound never fires; one unbound in its consequent or context is noted
whenever its goal is derived, one in an antecedent only once its
context passes the gate.  Every step is kept as a proof node so
answers can be explained.  One goal table maps each derived goal to
its proof, and the session answers a goal it already holds from the
table.  The proof is the one record of what a goal read: its premises
are the sub-goal proofs it points at (``premise_nodes``), and its
stored-value reads (its own fact slot and the ground contexts its
rules' gates screen) depend only on the goal and the rule index, which
inverts them (``RuleIndex.readers_of``).  Belief revision walks those
two edges upward to invalidate exactly what an update touches.

Context screening (``context_passes``) is the cheap gate in front of
all of this: a rule or case with a context only participates when the
world's stored values for its ground context atoms clear the activation
threshold.  Screening reads, it never proves; an expensive derivation
chain cannot hide inside a context check.  Case retrieval in ``cbr``
screens through the same gate.
"""

from __future__ import annotations

from itertools import chain
from operator import is_
from typing import Callable, Generator, Iterable, Iterator, Mapping, Optional, Sequence

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
    KnowledgeBase,
    Rule,
    RuleInstance,
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
    "Notes",
    "premise_nodes",
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


class QueryConfig(Record):
    """Knobs for one query run.

    ``context_threshold`` is the activation level a rule's context must
    reach; ``conflict_policy`` decides whether inverted intervals raise
    or degrade to ignorance.  Whether a query may prompt for askable
    facts follows from whether its session was given an asker.
    """

    __slots__ = ("context_threshold", "conflict_policy")

    def __init__(
        self, context_threshold: float = 0.5,
        conflict_policy: ConflictPolicy = ConflictPolicy.STRICT,
    ) -> None:
        if not 0.0 <= context_threshold <= 1.0:  # nan fails too
            raise DomainError(f"context threshold {context_threshold!r} outside [0, 1]")
        self.context_threshold = context_threshold
        self.conflict_policy = conflict_policy


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


class Notes:
    """Messages in the order first noted, each held once.

    ``append`` skips a message already held, in constant time however
    many came before it, so the code that notes (``calculus``, ``cbr``,
    the engine) appends without looking first.
    """

    __slots__ = ("_held",)

    def __init__(self, messages: Iterable[str] = ()) -> None:
        self._held = dict.fromkeys(messages)

    def append(self, message: str) -> None:
        self._held[message] = None

    def __iter__(self) -> Iterator[str]:
        return iter(self._held)


def premise_nodes(
    node: ProofNode, children: tuple[ProofNode, ...] | None = None
) -> list[ProofNode]:
    """The sub-goal proofs a goal's proof points at, in premise order:
    the children of its rule instances and of its matched cases.

    ``children`` stands in for ``node.children``: the revision tracker
    passes the children a node held when it was set aside, which a
    derivation written into the node since has replaced."""
    out: list[ProofNode] = []
    for path in node.children if children is None else children:
        if path.kind == "precedent":
            for case in path.children:
                out.extend(case.children)
        else:
            out.extend(path.children)
    return out


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
        derived: list[Atom], graph: dict[Atom, ProofNode],
    ) -> None:
        self.goal = goal
        self.interval = interval
        self.proof = proof
        self.diagnostics = diagnostics
        self.derived = derived
        self.graph = graph

    @property
    def dependencies(self) -> dict[Atom, ProofNode]:
        """The goal and every sub-goal it reaches, each with its proof.

        A goal reaches the premises its proof points at, and the goals
        come in preorder of those premises.  Computed on access from the
        session's goal table, so a table that belief revision has purged
        since gives less.
        """
        out: dict[Atom, ProofNode] = {}
        stack = [self.goal]
        while stack:
            atom = stack.pop()
            if atom in out:
                continue
            node = self.graph.get(atom)
            if node is None:
                continue
            out[atom] = node
            stack.extend(premise.goal for premise in reversed(premise_nodes(node)))
        return out


def context_passes(context: tuple[Atom, ...], world: World, config: QueryConfig) -> bool:
    """The screening gate that admits rules and case templates alike.

    ``context`` is ground (``RuleIndex`` binds it).  Screening is a
    shallow read of the world's stored values, never a proof, and grades
    the joint context with the most liberal conjunction (min), so the
    gate fails on the weakest atom alone, not on the interaction of
    several weak ones.  Context reads are dependencies whatever the
    verdict; ``RuleIndex.readers_of`` inverts them for revision.
    """
    threshold = config.context_threshold
    for atom in context:
        if lookup(world, atom).lower < threshold:
            return False
    return True


class RuleIndex:
    """The rules of one knowledge base, grounded in one world's roles.

    The rules are ``kb.indexed_rules()``: ``kb.rules`` followed by the
    cases each precedent link instantiates: a case is a rule, with
    ``roles`` set, filed in the case library, and is indexed as one.
    Roles are bound per world and never unified, so a rule has at most
    one ground instance in a world: this is Rete's alpha memory with a
    trivial join (Forgy 1982), built from the KB's compiled form
    (``KnowledgeBase.compiled``) as Rete builds its network once for
    every working memory.  ``concluding`` maps each ground consequent to
    the rules that conclude it, in that order.  ``inactive`` lists, in
    the same order, the rules whose consequent the world cannot bind;
    each ``concluding`` list also holds those of its predicate at their
    place in that order, so a derivation notes them where a scan over
    every rule would.  Each instance's context is grounded here too,
    beside its premises, so a derivation binds no role; only the gate's
    reads of the context's facts wait for evaluation time, since facts
    change between queries.

    A rule that mentions no role is the compiled form's own instance,
    shared by every world, over the KB's atom table, so equal atoms are
    one object and the goal table, keyed by the premises it derives,
    mostly finds a key by identity rather than by comparing atoms.  Of
    a KB with no role at all, ``concluding`` is the compiled form's
    grouping itself.  Only a rule that mentions a role is grounded here,
    each distinct atom once, through one memo that consequents, contexts
    and premises share; a ground atom the KB holds is the KB's object,
    and one only this world makes stays in this index.  Where every
    ground atom of such a rule's context or premises is the compiled
    instance's own, the instance keeps that tuple.  Only when a world
    leaves a role unbound can a rule be inactive, and only then does the
    index keep each predicate's consequents to place it.

    The index holds exactly what a derivation reads, so its
    stored-value reads follow from the index alone and ``readers_of``
    inverts them; the inverse is built on its first use, and one-shot
    queries never build it.

    An instance keeps its error without the traceback, which would keep
    the frames it passed through alive, so a KB of many inactive rules
    keeps no frames.

    The index is valid only for the KB and role bindings it was built
    from.
    """

    __slots__ = ("concluding", "inactive", "_unbound", "_context_readers")

    def __init__(self, kb: KnowledgeBase, roles: dict[str, str]):
        compiled = kb.compiled().grouped()
        self.inactive: list[RuleInstance] = []
        self._unbound: dict[str, list[RuleInstance]] = {}
        self._context_readers: dict[Atom, dict[Atom, None]] | None = None
        if not compiled.roles:
            self.concluding: dict[Atom, list[RuleInstance]] = compiled.groups
            return
        concluding = self.concluding = {}
        shared = kb.atoms
        own: dict[Atom, Atom] = {}  # ground atoms the KB does not hold
        bound: dict[Atom, Atom] = {}  # source atom -> its ground atom, interned

        def bind(atom: Atom) -> Atom:
            ground = bound.get(atom)
            if ground is None:
                ground = substitute(atom, roles)
                ground = bound[atom] = shared.get(ground) or own.setdefault(ground, ground)
            return ground

        def bind_all(atoms: tuple[Atom, ...]) -> tuple[Atom, ...]:
            if all(map(is_, map(bound.get, atoms), atoms)):
                return atoms  # each atom is already its own ground atom
            ground = tuple(map(bind, atoms))
            return atoms if all(map(is_, ground, atoms)) else ground

        grounded = set(chain.from_iterable(compiled.roles.values()))
        may_be_inactive = not compiled.roles.keys() <= roles.keys()
        atoms_of: dict[str, list[Atom]] = {}
        for position, (instance, head) in enumerate(zip(compiled.instances, compiled.consequents)):
            if position in grounded:
                consequent = error = None
                context = premises = ()
                try:
                    consequent = bind(head)
                    context = bind_all(instance.context)
                    premises = bind_all(instance.premises)
                except UnboundRoleError as err:
                    error = err.with_traceback(None)
                instance = RuleInstance(instance.rule, context, premises, error)
                if consequent is None:
                    predicate = head.predicate
                    self.inactive.append(instance)
                    self._unbound.setdefault(predicate, []).append(instance)
                    for atom in atoms_of.get(predicate, ()):
                        concluding[atom].append(instance)
                    continue
                head = consequent
            bucket = concluding.get(head)
            if bucket is None:
                bucket = concluding[head] = []
                if may_be_inactive:
                    bucket += self._unbound.get(head.predicate, ())
                    atoms_of.setdefault(head.predicate, []).append(head)
            bucket.append(instance)

    def rules_for(self, atom: Atom) -> Sequence[RuleInstance]:
        """The rules a derivation of ``atom`` considers, in index order."""
        return self.concluding.get(atom) or self._unbound.get(atom.predicate, ())

    def readers_of(self, atom: Atom) -> tuple[Atom, ...]:
        """The goals whose derivation reads ``atom``'s stored value.

        These are ``atom`` itself, whose fact slot its derivation reads,
        then in index order every conclusion with a rule whose ground
        context holds ``atom``: the gate reads that context whatever its
        verdict.  A rule whose context has an unbound role has no ground
        context, since nothing screens it, so it reads no atom here.
        """
        inverse = self._context_readers
        if inverse is None:
            inverse = self._context_readers = {}
            for goal, instances in self.concluding.items():
                for instance in instances:
                    for read in instance.context:
                        inverse.setdefault(read, {})[goal] = None
        return (atom, *inverse.get(atom, ()))


class QuerySession:
    """One reasoning pass over a fixed knowledge base and world.

    Every goal the session derives goes into its goal table with its
    proof, and a goal the table holds is answered from it, so shared
    premises are proved once.  The goal table (``goals``) and the rule
    index can be supplied by a caller (the revision tracker does) to
    persist them across sessions; the caller must then purge the table
    on world updates, and rebuild the index when the KB or the world's
    roles change.  ``derived`` lists every goal the session evaluated
    afresh, and so recorded in the table, in the order their evaluations
    finished, including those of a query that raised.  ``notes`` holds
    the session's notes, first the world's conflict notes, so a conflict
    degraded while the world's evidence was reconciled is noted by every
    query over it; ``diagnostics`` lists them.

    ``aside`` holds goal-table entries a caller purged but may put back
    (the revision tracker's set-aside goals).  A goal derived afresh
    whose interval equals its set-aside proof's is written into that
    ``ProofNode`` in place, so a parent that points at the old node
    reads the new derivation.  Each rule or case path of a set-aside
    proof whose premises are still the same nodes is kept as it is.
    One-shot sessions pass none.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        world: World,
        config: QueryConfig | None = None,
        asker: Asker | None = None,
        *,
        goals: dict[Atom, ProofNode] | None = None,
        index: RuleIndex | None = None,
        aside: Mapping[Atom, ProofNode] | None = None,
    ):
        self.kb = kb
        self.world = world
        self.config = config or QueryConfig()
        self.asker = asker
        self.notes = Notes(world.conflicts.values())
        self.derived: list[Atom] = []
        self._goals = goals if goals is not None else {}
        self._index = index if index is not None else RuleIndex(kb, world.roles)
        self._aside = aside
        self._asked: set[Atom] = set()

    @property
    def diagnostics(self) -> list[str]:
        return list(self.notes)

    def prove(self, goal: Atom) -> QueryResult:
        """Evaluate one goal; role variables are bound from the world."""
        goal = substitute(goal, self.world.roles)
        start = len(self.derived)
        node = self._evaluate(goal)
        if node.kind == "fact" and goal not in self.world.facts:
            self.notes.append(f"no support for {goal}: answering with total ignorance")
        return QueryResult(
            goal=goal,
            interval=node.result,
            proof=node,
            diagnostics=list(self.notes),
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
        ``stack`` holds each goal under way with its derivation,
        outermost first."""
        goals = self._goals
        known = goals.get(atom)
        if known is not None:
            return known
        aside = self._aside
        send = self._derive(atom).send
        stack = {atom: send}
        node = None
        while True:
            try:
                premise = send(node)
            except StopIteration as done:
                node = done.value
                goal, _ = stack.popitem()
                if aside is not None:
                    old = aside.get(goal)
                    if old is not None and old.result == node.result:
                        node = _refill(old, node)
                goals[goal] = node
                self.derived.append(goal)
                if not stack:
                    return node
                send = next(reversed(stack.values()))
                continue
            if premise in stack:
                path = [*stack, premise][list(stack).index(premise):]
                raise DerivationCycleError("derivation cycle: " + " -> ".join(map(str, path)))
            send = stack[premise] = self._derive(premise).send
            # A generator just started takes None.
            node = None

    def _derive(self, atom: Atom) -> Generator[Atom, ProofNode, ProofNode]:
        """Derive ``atom``.  A premise the goal table holds is answered
        from it; each other premise is yielded to ``_evaluate``, which
        sends back its proof."""
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

        fact_node = None
        if fact is not None:
            fact_node = ProofNode(atom, "fact", fact.effective, "+".join(fact.sources()))
        rules = self._index.rules_for(atom)
        link = self.kb.precedent_links.get(atom.predicate)
        if not rules and link is None:
            return fact_node or ProofNode(atom, "fact", TOTAL_IGNORANCE, "unknown")

        paths: list[ProofNode] = []
        cases: list[ProofNode] = []
        families: list[TNormFamily] = []
        # The set-aside proof's rule and case paths, last first: they
        # fired in index order, so each is the next rule's path or none.
        old = self._aside.get(atom) if self._aside else None
        was = [] if old is None else [
            path for top in reversed(old.children)
            for path in (reversed(top.children) if top.kind == "precedent" else (top,))
        ]

        for rule, context, premises, error in rules:
            is_case = rule.roles is not None
            kind = "case-instance" if is_case else "rule-instance"
            path = None
            if was and was[-1].provenance == rule.identifier and was[-1].kind == kind:
                path = was.pop()
            # An unbound role in the consequent or the context (no
            # context) is noted always, one in an antecedent only past
            # the gate.
            if context and not context_passes(context, world, config):
                continue
            if error is not None:
                self._inactive(rule, error)
                continue
            children = []
            for premise in premises:
                sub = goals.get(premise)
                if sub is None:
                    sub = yield premise
                children.append(sub)
            family = rule.family
            # A path whose premises are the nodes it read is kept.
            if path is None or not all(map(is_, path.children, children)):
                # Calls whose answer is their input are skipped, once the
                # family they would check is known to be one.
                if len(children) == 1 and family.__class__ is TNormFamily:
                    joint = sub.result
                else:
                    joint = antecedent_eval(family, [child.result for child in children])
                detached = detach(family, rule.sufficiency, rule.necessity, joint)
                path = ProofNode(atom, kind, detached, rule.identifier, joint, tuple(children))
            if is_case:
                cases.append(path)
            else:
                families.append(family)
                paths.append(path)

        if link is not None:
            # The matched cases are one more support path, combined under
            # the link's family; no match reads as total ignorance.
            if cases:
                support = aggregate(
                    link.family,
                    [c.result for c in cases],
                    config.conflict_policy,
                    subject=f"precedent support for {atom}",
                    diagnostics=self.notes,
                )
            else:
                self.notes.append(
                    f"no precedent support for {atom} under {format_path(link.path)}"
                )
                support = TOTAL_IGNORANCE
            families.append(link.family)
            paths.append(
                ProofNode(atom, "precedent", support, format_path(link.path), None, tuple(cases))
            )

        if not paths:
            return fact_node or ProofNode(atom, "fact", TOTAL_IGNORANCE, "unknown")

        if len(paths) == 1 and families[0].__class__ is TNormFamily:
            family, derived = families[0], paths[0].result  # one path is its own aggregate
        else:
            family = TNormFamily.most_conservative(families)
            derived = aggregate(
                family,
                [p.result for p in paths],
                config.conflict_policy,
                subject=atom,
                diagnostics=self.notes,
            )
        children = list(paths)
        if fact_node is not None:
            # The stored fact joins as one more independent source.
            final = consensus(
                [derived, fact.effective],
                config.conflict_policy,
                labels=["derived support", f"stored fact ({fact_node.provenance})"],
                subject=atom,
                diagnostics=self.notes,
            )
            children.append(fact_node)
        else:
            final = derived
        return ProofNode(atom, "aggregation", final, family.label, None, tuple(children))

    def _may_ask(self, atom: Atom) -> bool:
        return (
            self.asker is not None
            and atom.predicate in self.world.askables
            and atom not in self._asked
        )

    def _inactive(self, rule: Rule, err: UnboundRoleError) -> None:
        kind = "rule" if rule.roles is None else "case"
        self.notes.append(f"{kind} {rule.identifier} inactive: {err}")


def _refill(old: ProofNode, new: ProofNode) -> ProofNode:
    """Write ``new``'s fields into ``old`` and return ``old``."""
    old.kind = new.kind
    old.result = new.result
    old.provenance = new.provenance
    old.premise_interval = new.premise_interval
    old.children = new.children
    return old


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
