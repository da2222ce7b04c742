"""Belief revision with dependency tracking.

The tracker wraps the engine: queries run through it, and it keeps the
engine's goal table (each derived goal's proof) between them.  A goal
reads two things: the premises its proof points at, and stored values
(its own fact slot and the ground contexts its rules' gates screen),
which the rule index inverts (``RuleIndex.readers_of``).  Beside the
table the tracker keeps the premise edges reversed: for each sub-goal,
the goals whose proofs point at it, in the order their edges were
added.  Every evidence edit, through ``on_update`` or made on the world
directly (a retraction too), takes one path: at its next call the
tracker reads the atoms edited since from the world's change log.  For
each atom whose interval moved, it starts from the goals that read its
stored value and climbs the reader edges upward, sets aside every goal
it reaches, marks the tracked conclusions among them stale, and
recomputes lazily.  A goal that screens a derived atom's stored value
is not reached through that atom's derivation, which may move while the
stored value does not.

Reader edges survive the purge: the climb reads them and changes
none, so a set-aside goal keeps the edges of the proof it was set aside
with, and the edges are always the inversion of the goal table plus the
set-aside proofs.  The climb goes depth first and sets a goal aside
once every goal above it is, so the set-aside goals are held readers
first.  For each, it records the children of its proof and the
set-aside premises it was reached from; a premise outside the cone was
not set aside, so it still holds the node the goal's proof points at.
An update thus costs in proportion to the goals it reaches, not to the
size of the table.

Recomputation stops climbing where an interval did not move (early
cutoff).  ``recompute`` settles the set-aside goals below all its
targets in one walk: one pass down the recorded premises marks the
goals below the targets, and one pass back over the set-aside goals
settles those, premises before readers.  ``query`` settles those below
its goal the same way.  A goal that read no stored value updated since
it was set aside, and whose recorded premises each still hold the node
it was set aside with, goes back into the table with its node: a few
dict operations, no walk over its proof, and its edges are already in
place.  Any other goal is derived again, keeping each rule or case
path whose premises are still the same nodes.  If its interval did not move,
the new derivation is written into its old ``ProofNode`` in place, so
parents put back later still point at their sub-goal's current proof
(and a proof a query returned earlier, which shares that node, shows
the new derivation too).  Its edges change only for the premises its
new proof gained or lost.  Each target is then read from the goal
table, and only one the walk left out of it is derived afresh.  Nothing
set aside outlives ``recompute``: the goals it leaves aside drop the
edges of their set-aside proofs.

An atom whose sources changed but whose interval did not invalidates
nothing: only its own goal's proof, which names the sources, is
rewritten in place.  A role rebinding regrounds every rule and makes
every conclusion stale, unless no rule or linked case template mentions
a role it changed; then it changes nothing derived.  The rule index is
built once per binding of those roles and shared by every session the
tracker opens.

The defining contract: after any sequence of updates, recomputed
intervals are identical to what discarding all state and re-proving
from scratch would give, and so are tracked proofs.  Everything here is
an optimisation around that equality, never a change to it.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable

from ._records import Record
from .calculus import CertaintyInterval
from .engine import (
    ProofNode,
    QueryConfig,
    QueryResult,
    QuerySession,
    RuleIndex,
    premise_nodes,
)
from .knowledge import Atom, KnowledgeBase, World, assert_evidence, substitute

__all__ = ["DependencyRecord", "DependencyTracker"]


class DependencyRecord(Record):
    """One tracked conclusion and its cached interval.

    epoch is the world epoch at which the cached interval last changed.
    What the conclusion rests on is not stored here: it is the engine's
    goal table, whose edges the tracker walks on every update.
    """

    __slots__ = ("conclusion", "cached", "epoch")

    def __init__(self, conclusion: Atom, cached: CertaintyInterval, epoch: int) -> None:
        self.conclusion = conclusion
        self.cached = cached
        self.epoch = epoch


class DependencyTracker:
    """Incremental re-reasoning over one knowledge base and world."""

    def __init__(
        self,
        kb: KnowledgeBase,
        world: World,
        config: QueryConfig | None = None,
    ):
        self.kb = kb
        self.world = world
        self.config = config or QueryConfig()
        self.records: dict[Atom, DependencyRecord] = {}
        self._texts: dict[Atom, str] = {}  # each record's conclusion as text, to sort by
        self._goals: dict[Atom, ProofNode] = {}
        # Each premise's readers, as an ordered set, so the climb's
        # order, and through it settling's, follows no hash seed.
        self._readers: dict[Atom, dict[Atom, None]] = {}
        # Purged entries kept for early cutoff, readers first; for each,
        # in the same order, the children it was set aside with and the
        # set-aside premise proofs the climb reached it from; and the
        # goals whose stored reads were updated since the oldest of them
        # was set aside.
        self._aside: dict[Atom, ProofNode] = {}
        self._cone: dict[Atom, tuple[tuple[ProofNode, ...], list[ProofNode]]] = {}
        self._updated: set[Atom] = set()
        self._stale: set[Atom] = set()
        self._edits = world.edits
        self._roles = dict(world.roles)
        self._index = RuleIndex(kb, world.roles)

    def _session(self) -> QuerySession:
        return QuerySession(
            self.kb,
            self.world,
            self.config,
            goals=self._goals,
            index=self._index,
            aside=self._aside,
        )

    def _sync(self) -> set[Atom]:
        """Apply every edit to the world since the last call: the one path.

        A rebinding of a role that a rule or linked case template
        mentions regrounds the index and drops every derived result; the
        bindings of other roles are only noted.  Evidence edits are read
        from the world's change log, back to the last edit count seen,
        one atom at a time in edit order.  If an atom's interval moved,
        the goals that read its stored value and their reader cone are
        set aside, readers first, with what the climb recorded (see the
        module docstring).  A goal set aside already stops the climb,
        since its readers are set aside too, but still records the
        premise it was reached from.  If only a source changed, the
        atom's own goal is then derived again, its proof rewritten in
        place, unless a purge took it.  Returns the tracked conclusions
        this made stale; one already stale, and not re-proved since, has
        no goal-table entry left to reach, so it is not returned again.
        """
        world = self.world
        if world.roles != self._roles:
            old, self._roles = self._roles, dict(world.roles)
            rebound = {r for r in {*old, *world.roles} if old.get(r) != world.roles.get(r)}
            if not rebound.isdisjoint(self.kb.compiled().grouped().roles):
                self._index = RuleIndex(self.kb, world.roles)
                self._edits = world.edits
                self._goals.clear()
                self._readers.clear()
                self._aside.clear()
                self._cone.clear()
                self._stale |= self.records.keys()
                return set(self.records)
        since = self._edits
        if world.edits == since:
            return set()
        self._edits = world.edits
        edited = []
        for atom, (edit, last_move) in reversed(world.log.items()):
            if edit <= since:
                break
            edited.append((atom, last_move > since))
        if not self._aside:
            self._updated.clear()
        goals, readers, aside, cone = self._goals, self._readers, self._aside, self._cone
        reached: list[Atom] = []
        rewrite = []
        for atom, moved in reversed(edited):
            stored_readers = self._index.readers_of(atom)
            self._updated.update(stored_readers)
            if not moved:
                rewrite.append(atom)
                continue
            for goal in stored_readers:
                node = goals.pop(goal, None)
                if node is None:
                    continue
                # Depth first up the reader edges; a goal is set aside
                # once every goal above it is, so readers come first.
                stack = [(node, [], iter(readers.get(goal, ())))]
                while stack:
                    premise, below, above = stack[-1]
                    for reader in above:
                        node = goals.pop(reader, None)
                        if node is None:  # set aside already
                            cone[reader][1].append(premise)
                        else:
                            stack.append((node, [premise], iter(readers.get(reader, ()))))
                            break
                    else:
                        stack.pop()
                        done = premise.goal
                        aside[done] = premise
                        cone[done] = (premise.children, below)
                        reached.append(done)
        invalidated = self.records.keys() & reached
        self._stale |= invalidated
        # A goal no purge took read nothing that moved, so deriving it
        # again keeps its interval and node; only its sources change.
        rewrite = [atom for atom in rewrite if atom in goals]
        for atom in rewrite:
            node = aside[atom] = goals.pop(atom)
            cone[atom] = (node.children, [])
        if rewrite:
            self._prove(self._session(), rewrite)
        return invalidated

    def query(self, goal: Atom) -> QueryResult:
        """Prove a goal and start tracking it (and its derived sub-goals).

        Set-aside goals below it are settled first, as in ``recompute``:
        a goal put back keeps its node and its reader edges, so the
        result's ``derived`` lists only the goals derived again or
        afresh.  The rest of the cone stays set aside, with its records
        and edges, for a later ``recompute`` or query.
        """
        self._sync()
        if self._aside:  # settling starts from the ground goal
            goal = substitute(goal, self.world.roles)
        session = self._session()
        derived = self._prove(session, [goal])
        result = session.prove(goal)  # answered from the goal table
        result.derived = derived
        self.track(result)
        self._stale.discard(result.goal)
        return result

    def _prove(self, session: QuerySession, targets: list[Atom]) -> list[Atom]:
        """Settle the set-aside goals below ``targets`` in one walk, prove
        each target still missing from the goal table, add the reader
        edges of every goal derived afresh and relink those of every
        goal derived again.  ``session`` is fresh, and ``targets`` are
        ground whenever anything is set aside.

        Returns the goals derived, settling's included, in the order
        their derivations finished.  Raising keeps nothing: the goals
        derived before the raise would have neither reader edges nor
        records, so they are dropped from the goal table, with their
        set-aside entries (whose nodes the walk may have rewritten, and
        whose set-aside edges go too) and the goals settling put back
        (which may read them), and derived again when reached.
        """
        goals, aside, cone = self._goals, self._aside, self._cone
        restored: list[Atom] = []
        try:
            if aside:
                self._settle(session, targets, restored)
            for goal in targets:
                if goal not in goals:
                    session.prove(goal)
        except BaseException:
            for atom in restored:
                self._drop_readers(atom, premise_nodes(goals.pop(atom)))
            for atom in session.derived:
                node = goals.pop(atom)
                if aside.pop(atom, None) is not None:
                    self._drop_readers(atom, premise_nodes(node, cone.pop(atom)[0]))
            raise
        for atom in session.derived:
            node = goals[atom]
            premises = premise_nodes(node)
            entry = cone.pop(atom, None)
            if entry is None:
                self._add_readers(atom, premises)
                continue
            # Derived again: relink only the premises it gained or lost.
            del aside[atom]
            was = premise_nodes(node, entry[0])
            if [p.goal for p in was] != [p.goal for p in premises]:
                old, new = {p.goal for p in was}, {p.goal for p in premises}
                self._add_readers(atom, [p for p in premises if p.goal not in old])
                self._drop_readers(atom, [p for p in was if p.goal not in new])
        return session.derived

    def _settle(self, session: QuerySession, targets: list[Atom], restored: list[Atom]) -> None:
        """Put back or derive again each set-aside goal below ``targets``.

        One walk serves every target.  The climbs left ``aside`` readers
        first, so a pass over it marks the goals below the targets, down
        the premises recorded with each, and a pass back settles the
        marked ones, premises before readers.  Both orders follow the
        reader edges', which are insertion-ordered, not any hash.  A
        goal goes back when no stored value it reads was updated since
        it was set aside and each recorded premise is still its
        sub-goal's node in the table; its node and reader edges are as
        they were, so putting it back touches neither.  Any other goal
        is derived again through ``session``, which keeps its old node
        when its interval did not move.  The goals put back are appended
        to ``restored``.
        """
        goals, aside, cone, updated = self._goals, self._aside, self._cone, self._updated
        wanted = {goal for goal in targets if goal in cone}
        if not wanted:
            return
        want = wanted.add
        for goal, (_, premises) in cone.items():
            if goal in wanted:
                for premise in premises:
                    want(premise.goal)
        for goal in [*reversed(aside)]:
            if goal not in wanted or goal in goals:
                continue
            if goal not in updated:
                for premise in cone[goal][1]:
                    if goals.get(premise.goal) is not premise:
                        break
                else:
                    goals[goal] = aside.pop(goal)
                    del cone[goal]
                    restored.append(goal)
                    continue
            session.evaluate(goal)

    def _add_readers(self, goal: Atom, premises: list[ProofNode]) -> None:
        readers = self._readers
        for premise in premises:
            edges = readers.get(premise.goal)
            if edges is None:
                readers[premise.goal] = {goal: None}
            else:
                edges[goal] = None

    def _drop_readers(self, goal: Atom, premises: list[ProofNode]) -> None:
        readers = self._readers
        for premise in premises:
            # Its edge set may be gone: a premise two rules share comes twice.
            edges = readers.get(premise.goal)
            if edges is not None:
                edges.pop(goal, None)
                if not edges:
                    del readers[premise.goal]

    def track(self, result: QueryResult) -> list[DependencyRecord]:
        """Create or refresh records for the goal and its aggregated sub-goals.

        Only the sub-goals the query derived afresh are visited: one
        answered from the goal table was derived, and tracked, by the
        query that put it there.  A record whose interval did not change is
        left alone, so untouched conclusions keep their epoch across
        other conclusions' recomputation.
        """
        return self._refresh((result.goal,), result.derived)

    def _refresh(self, roots: Collection[Atom], derived: list[Atom]) -> list[DependencyRecord]:
        """``track``'s rule: a record for each root and each aggregation
        goal in ``derived``, replaced only where its interval moved.
        ``roots`` answers ``in`` in constant time."""
        goals, records, epoch = self._goals, self.records, self.world.epoch
        touched = []
        for atom in chain(roots, derived):
            node = goals[atom]
            if node.kind != "aggregation" and atom not in roots:
                continue
            old = records.get(atom)
            if old is None:
                self._texts[atom] = str(atom)
            if old is None or old.cached is not node.result and old.cached != node.result:
                record = records[atom] = DependencyRecord(atom, node.result, epoch)
                touched.append(record)
        return touched

    def on_update(self, atom: Atom, interval: CertaintyInterval, source: str) -> set[Atom]:
        """Apply new evidence and report which conclusions it unsettles.

        This is ``assert_evidence`` followed by ``_sync``, the path an
        edit made on the world directly takes too, so the returned set
        includes what earlier outside edits reached.  An update that
        does not move the fact's interval invalidates nothing.  The
        returned atoms stay stale (their records keep the old interval)
        until ``recompute`` or a fresh ``query`` refreshes them.
        """
        assert_evidence(self.world, atom, interval, source, self.config.conflict_policy)
        return self._sync()

    def recompute(self, invalidated: Iterable[Atom] | None = None) -> dict[Atom, CertaintyInterval]:
        """Re-prove stale conclusions, reusing every surviving sub-result.

        Role variables in the targets are bound from the world, as in
        ``query``.  The set-aside goals below the targets are settled in
        one walk (see the module docstring): a goal put back costs a few
        dict operations and no edge work, and a goal derived again
        relinks only the premises it gained or lost.  Each target is
        then read from the goal table, in ``str`` order.  One pass
        refreshes the records of the targets and of the aggregation
        goals derived, by ``track``'s rule.  Whatever is still set aside
        is discarded, with the edges of its set-aside proofs, and if
        settling raises, nothing it touched is kept and no record
        changes.
        """
        self._sync()
        targets = set(self._stale if invalidated is None else invalidated)
        if not targets <= self.records.keys():  # records are keyed by ground goals
            targets = {substitute(atom, self.world.roles) for atom in targets}
        texts = self._texts
        order = sorted(targets, key=texts.__getitem__ if targets <= texts.keys() else str)
        try:
            derived = self._prove(self._session(), order)
        finally:
            aside = self._aside
            for atom, node in aside.items():  # no derivation has rewritten these
                self._drop_readers(atom, premise_nodes(node))
            aside.clear()
            self._cone.clear()
            self._updated.clear()
        goals = self._goals
        refreshed = {atom: goals[atom].result for atom in order}
        self._refresh(refreshed, derived)
        self._stale -= targets
        return refreshed

    def stale(self) -> frozenset[Atom]:
        """Tracked conclusions invalidated and not yet recomputed."""
        self._sync()
        return frozenset(self._stale)
