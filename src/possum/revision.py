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
size of the table.  When evidence changes, the tracker starts from the
goals that read the updated atom's stored value and climbs the reader
edges upward, drops every goal it reaches from the table, marks the
tracked conclusions among them stale, and recomputes lazily.  A goal
that screens a derived atom's stored value is not reached through that
atom's derivation, which may move while the stored value does not.

Recomputation stops climbing where an interval did not move (early
cutoff).  A purged goal's entry is set aside, not discarded.  Before
proving a target, ``recompute`` and ``query`` settle the set-aside
goals below it, children first, in premise order.  A goal that read no
stored value updated since it was set aside, and whose sub-goals all
kept their proof nodes, goes back into the table with its node and
reader edges.  Any other goal is derived again.  If its interval did
not move, the new derivation is written into its old ``ProofNode`` in
place, so parents put back later still point at their sub-goal's
current proof (and a proof a query returned earlier, which shares that
node, shows the new derivation too).  Nothing set aside outlives
``recompute``.

An edit made to the world outside the tracker shows as a moved world
edit count (or as changed role bindings) and makes every conclusion
stale.
The rule index is built once and shared by every session the tracker
opens.

The defining contract: after any sequence of updates, recomputed
intervals are identical to what discarding all state and re-proving
from scratch would give, and so are tracked proofs.  Everything here is
an optimisation around that equality, never a change to it.
"""

from __future__ import annotations

from typing import Iterable

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
        """Drop every derived result if the world was edited outside us.

        An edit shows as a moved edit count, which every change to the
        evidence moves, even a source added without moving an interval:
        proofs name the sources.  Rebinding a role moves no count but
        regrounds every rule, so it counts as an edit too.  Returns the
        records this made stale: all of them, or none.
        """
        world = self.world
        rebound = world.roles != self._roles
        if world.edits == self._edits and not rebound:
            return set()
        if rebound:
            self._roles = dict(world.roles)
            self._index = RuleIndex(self.kb, world.roles)
        self._edits = world.edits
        self._goals.clear()
        self._readers.clear()
        self._aside.clear()
        self._stale |= self.records.keys()
        return set(self.records)

    def query(self, goal: Atom) -> QueryResult:
        """Prove a goal and start tracking it (and its derived sub-goals).

        Set-aside goals below it are settled first, as in ``recompute``.
        """
        self._sync()
        if self._aside:  # settling starts from the ground goal
            goal = substitute(goal, self.world.roles)
        result = self._prove(self._session(), goal)
        self.track(result)
        self._stale.discard(result.goal)
        return result

    def _prove(self, session: QuerySession, goal: Atom) -> QueryResult:
        """Settle the set-aside goals below ``goal``, prove it through
        ``session`` and add the reader edges of every goal derived.
        ``goal`` must be ground whenever anything is set aside.

        The result's ``derived`` lists the goals settling derived too.  A
        proof that raises keeps nothing: the goals it derived before
        raising would have neither reader edges nor records, so they are
        dropped from the goal table, with their set-aside entries (whose
        nodes the proof may have rewritten) and the goals settling put
        back (which may read them), and derived again when reached.
        """
        aside = self._aside
        done = len(session.derived)
        restored: list[Atom] = []
        try:
            if goal in aside:
                self._settle(session, goal, restored)
            result = session.prove(goal)
        except BaseException:
            for atom in restored:
                self._drop_readers(atom, self._goals.pop(atom))
            for atom in session.derived[done:]:
                del self._goals[atom]
                aside.pop(atom, None)
            raise
        if aside:
            # Settling leaves the entries of the goals it derived aside.
            result.derived = session.derived[done:]
            for atom in result.derived:
                aside.pop(atom, None)
        for atom in result.derived:
            self._add_readers(atom, self._goals[atom])
        return result

    def _settle(self, session: QuerySession, target: Atom, restored: list[Atom]) -> None:
        """Put back or derive again each set-aside goal below ``target``.

        Children come first, in premise order, so the order follows the
        proofs, not any set's.  A goal goes back, with its reader edges,
        when no stored value it reads was updated since it was set aside
        and each premise proof it points at is still its sub-goal's node
        in the table.  Any other goal is derived again through ``session``,
        which keeps its old node when its interval did not move.  The
        goals put back are appended to ``restored``.
        """
        goals, aside, updated = self._goals, self._aside, self._updated
        stack: list[tuple[Atom, list[ProofNode] | None]] = [(target, None)]
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
                    self._add_readers(goal, node)
                    restored.append(goal)
                    continue
            session.evaluate(goal)

    def _add_readers(self, goal: Atom, node: ProofNode) -> None:
        readers = self._readers
        for premise in premise_nodes(node):
            edges = readers.get(premise.goal)
            if edges is None:
                readers[premise.goal] = {goal}
            else:
                edges.add(goal)

    def _drop_readers(self, goal: Atom, node: ProofNode) -> None:
        readers = self._readers
        for premise in premise_nodes(node):
            # A premise two of the goal's rules share comes twice: its
            # edge set may be gone.
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
        touched = []
        for atom in (result.goal, *result.derived):
            node = self._goals[atom]
            if atom != result.goal and node.kind != "aggregation":
                continue
            old = self.records.get(atom)
            if old is not None and old.cached == node.result:
                continue
            record = DependencyRecord(atom, node.result, self.world.epoch)
            self.records[atom] = record
            touched.append(record)
        return touched

    def on_update(
        self,
        atom: Atom,
        interval: CertaintyInterval,
        source: str,
    ) -> set[Atom]:
        """Apply new evidence and report which conclusions it unsettles.

        The update starts from the goals that read ``atom``'s stored
        value, climbs the kept reader edges upward and purges every goal
        it reaches, with that goal's own edges, so its cost follows the
        goals reached.  The purged entries are set aside
        for ``recompute`` to put back where nothing they read moved; the
        returned set is all the goals reached that have records, as if
        they were discarded.  An update that does not move the fact's
        effective interval invalidates nothing and advances no epoch; it
        only rewrites, in place, the proof of the atom's own goal, which
        names the fact's sources.  The returned atoms stay stale (their
        records keep the old interval) until ``recompute`` or a fresh
        ``query`` refreshes them.  A conclusion already stale, and not
        re-proved since, has no goal-table entry left for the update to
        reach, so it is not returned again.
        """
        invalidated = self._sync()
        changed = assert_evidence(
            self.world, atom, interval, source, self.config.conflict_policy
        )
        if self.world.edits == self._edits:
            return invalidated  # the same interval from the same source again
        self._edits = self.world.edits
        if not self._aside:
            self._updated.clear()
        stored_readers = self._index.readers_of(atom)
        self._updated.update(stored_readers)
        goals = self._goals
        if not changed:
            node = goals.pop(atom, None)
            if node is not None:
                self._drop_readers(atom, node)
                self._aside[atom] = node
                self._prove(self._session(), atom)
            return invalidated
        readers = self._readers
        reached = {goal for goal in stored_readers if goal in goals}
        frontier = list(reached)
        while frontier:
            for goal in readers.get(frontier.pop(), ()):
                if goal not in reached:
                    reached.add(goal)
                    frontier.append(goal)
        aside = self._aside
        for goal in reached:
            node = aside[goal] = goals.pop(goal)
            self._drop_readers(goal, node)
        invalidated |= reached & self.records.keys()
        self._stale |= invalidated
        return invalidated

    def recompute(self, invalidated: Iterable[Atom] | None = None) -> dict[Atom, CertaintyInterval]:
        """Re-prove stale conclusions, reusing every surviving sub-result.

        Each target settles the set-aside goals below it first (see the
        module docstring), so the climb stops where an interval did not
        move.  Whatever is still set aside afterwards is discarded.
        """
        self._sync()
        targets = set(invalidated) if invalidated is not None else set(self._stale)
        refreshed: dict[Atom, CertaintyInterval] = {}
        session = self._session()
        try:
            for atom in sorted(targets, key=str):
                result = self._prove(session, atom)
                self.track(result)
                refreshed[atom] = result.interval
        finally:
            self._aside.clear()
            self._updated.clear()
        self._stale -= targets
        return refreshed

    def stale(self) -> frozenset[Atom]:
        """Tracked conclusions invalidated and not yet recomputed."""
        self._sync()
        return frozenset(self._stale)
