"""Belief revision with dependency tracking.

The tracker wraps the engine: queries run through it, and it keeps the
engine's goal table (each derived goal's proof) between them.  A goal
reads two things: the premises its proof points at, and stored values
(its own fact slot and the contexts of the rules for it), which the
rule index inverts (``RuleIndex.readers_of``).  Beside the table the
tracker keeps the premise edges reversed: for each sub-goal, the set of
goals whose proofs point at it.  These reader edges are added when a
goal is derived and removed when it is purged, each in constant time,
so an update costs in proportion to the goals it reaches, not to the
size of the table.  Every evidence edit, through ``on_update`` or made
on the world directly (a retraction too), takes one path: at its next
call the tracker reads the atoms edited since from the world's change
log.  For each atom whose interval moved, it starts from the goals that
read its stored value and climbs the reader edges upward, drops every
goal it reaches from the table, marks the tracked conclusions among
them stale, and recomputes lazily.  The climb
pops each reached goal's set of readers as it goes: every reader of a
reached goal is reached too, so the purge is left to discard only the
edges from premises outside the reached set.  A goal that screens a
derived atom's stored value is not reached through that atom's
derivation, which may move while the stored value does not.

Recomputation stops climbing where an interval did not move (early
cutoff).  A purged goal's entry is set aside, not discarded.
``recompute`` settles the set-aside goals below all its targets in one
walk: targets in ``str`` order, below each children first, in premise
order.  ``query`` settles those below its goal the same way.  A goal
that read no stored value updated since it was set aside, and whose
sub-goals all kept their proof nodes, goes back into the table with its
node and reader edges.  Any other goal is derived again.  If its
interval did not move, the new derivation is written into its old
``ProofNode`` in place, so parents put back later still point at their
sub-goal's current proof (and a proof a query returned earlier, which
shares that node, shows the new derivation too).  Each target is then
read from the goal table, and only one the walk left out of it is
derived afresh.  Nothing set aside outlives ``recompute``.

An atom whose sources changed but whose interval did not invalidates
nothing: only its own goal's proof, which names the sources, is
rewritten in place.  A role rebinding regrounds every rule and makes
every conclusion stale.  The rule index is built once and shared by
every session the tracker opens.

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
        self._goals: dict[Atom, ProofNode] = {}
        self._readers: dict[Atom, set[Atom]] = {}
        # Purged entries kept for early cutoff, and the goals whose
        # stored reads were updated since the oldest of them was set aside.
        self._aside: dict[Atom, ProofNode] = {}
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
        """Apply every evidence edit since the last call: the one path.

        Walks the world's change log back to the last edit count seen,
        then takes each atom edited since, in edit order.  If its
        interval moved, the goals that read its stored value and their
        reader cone are purged into ``_aside`` (see the module
        docstring).  If only a source changed, its own goal's proof is
        then rewritten in place, unless a purge took it.  A role
        rebinding drops every derived result instead.  Returns the tracked conclusions this made stale; one
        already stale, and not re-proved since, has no goal-table entry
        left to reach, so it is not returned again.
        """
        world = self.world
        if world.roles != self._roles:
            self._roles = dict(world.roles)
            self._index = RuleIndex(self.kb, world.roles)
            self._edits = world.edits
            self._goals.clear()
            self._readers.clear()
            self._aside.clear()
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
        goals, readers, aside = self._goals, self._readers, self._aside
        reached: set[Atom] = set()
        rewrite = []
        for atom, moved in reversed(edited):
            stored_readers = self._index.readers_of(atom)
            self._updated.update(stored_readers)
            if not moved:
                rewrite.append(atom)
                continue
            frontier = [goal for goal in stored_readers if goal in goals]
            purged = set(frontier)
            while frontier:
                for goal in readers.pop(frontier.pop(), ()):
                    if goal not in purged:
                        purged.add(goal)
                        frontier.append(goal)
            for goal in purged:
                node = aside[goal] = goals.pop(goal)
                self._drop_readers(goal, node)
            reached |= purged
        invalidated = reached & self.records.keys()
        self._stale |= invalidated
        # A goal no purge took read nothing that moved, so deriving it
        # again keeps its interval and node; only its sources change.
        rewrite = [atom for atom in rewrite if atom in goals]
        for atom in rewrite:
            node = aside[atom] = goals.pop(atom)
            self._drop_readers(atom, node)
        if rewrite:
            self._prove(self._session(), rewrite)
        return invalidated

    def query(self, goal: Atom) -> QueryResult:
        """Prove a goal and start tracking it (and its derived sub-goals).

        Set-aside goals below it are settled first, as in ``recompute``.
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
        each target still missing from the goal table, and add the reader
        edges of every goal derived.  ``session`` is fresh, and
        ``targets`` are ground whenever anything is set aside.

        Returns the goals derived, settling's included, in the order
        their derivations finished.  Raising keeps nothing: the goals
        derived before the raise would have neither reader edges nor
        records, so they are dropped from the goal table, with their
        set-aside entries (whose nodes the walk may have rewritten) and
        the goals settling put back (which may read them), and derived
        again when reached.
        """
        goals, aside = self._goals, self._aside
        restored: list[Atom] = []
        try:
            if aside:
                self._settle(session, targets, restored)
            for goal in targets:
                if goal not in goals:
                    session.prove(goal)
        except BaseException:
            for atom in restored:
                self._drop_readers(atom, goals.pop(atom))
            for atom in session.derived:
                del goals[atom]
                aside.pop(atom, None)
            raise
        # Settling leaves the entries of the goals it derived aside.
        for atom in session.derived:
            aside.pop(atom, None)
            self._add_readers(atom, premise_nodes(goals[atom]))
        return session.derived

    def _settle(self, session: QuerySession, targets: list[Atom], restored: list[Atom]) -> None:
        """Put back or derive again each set-aside goal below ``targets``.

        One walk serves every target: targets in the order given, and
        below each, children first, in premise order, so the order
        follows the proofs, not any set's.  A goal goes back, with its
        reader edges, when no stored value it reads was updated since it
        was set aside and each premise proof it points at is still its
        sub-goal's node in the table.  Any other goal is derived again
        through ``session``, which keeps its old node when its interval
        did not move.  The goals put back are appended to ``restored``.
        """
        goals, aside, updated = self._goals, self._aside, self._updated
        stack: list[tuple[Atom, list[ProofNode] | None]] = [(t, None) for t in reversed(targets)]
        entered: set[Atom] = set()  # a guard: set-aside proofs form no cycle
        while stack:
            goal, premises = stack.pop()
            node = aside.get(goal)
            if node is None or goal in goals:
                continue
            if premises is None:
                if goal not in entered:
                    entered.add(goal)
                    premises = premise_nodes(node)
                    stack.append((goal, premises))
                    stack.extend([(n.goal, None) for n in reversed(premises) if n.goal in aside])
                continue
            if goal not in updated:
                for premise in premises:
                    if goals.get(premise.goal) is not premise:
                        break
                else:
                    del aside[goal]
                    goals[goal] = node
                    self._add_readers(goal, premises)
                    restored.append(goal)
                    continue
            session.evaluate(goal)

    def _add_readers(self, goal: Atom, premises: list[ProofNode]) -> None:
        readers = self._readers
        for premise in premises:
            edges = readers.get(premise.goal)
            if edges is None:
                readers[premise.goal] = {goal}
            else:
                edges.add(goal)

    def _drop_readers(self, goal: Atom, node: ProofNode) -> None:
        readers = self._readers
        for premise in premise_nodes(node):
            # Its edge set may be gone: a premise two rules share comes
            # twice, and ``_sync`` pops the reached goals' sets.
            edges = readers.get(premise.goal)
            if edges is not None:
                edges.discard(goal)
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
            if old is None or old.cached != node.result:
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
        ``query``.  The targets, in ``str`` order, settle the set-aside goals below
        them in one walk (see the module docstring), then each is read
        from the goal table.  One pass refreshes the records of the
        targets and of the aggregation goals derived, by ``track``'s
        rule.  Whatever is still set aside is discarded, and if settling
        raises, nothing it touched is kept and no record changes.
        """
        self._sync()
        targets = set(self._stale if invalidated is None else invalidated)
        if not targets <= self.records.keys():  # records are keyed by ground goals
            targets = {substitute(atom, self.world.roles) for atom in targets}
        order = sorted(targets, key=str)
        try:
            derived = self._prove(self._session(), order)
        finally:
            self._aside.clear()
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
