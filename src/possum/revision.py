"""Belief revision with dependency tracking.

The tracker wraps the engine: queries run through it, and it keeps the
engine's goal table (each derived goal's proof, and the atoms and
sub-goals it read) between them.  Beside the table it keeps the same
edges reversed: for each atom or sub-goal, the goals that read it.
These reader edges are added when a goal is derived and removed when it
is purged, so an update costs in proportion to the goals it reaches,
not to the size of the table.  When evidence changes the tracker walks
the reader edges upward from the updated atom, drops every goal it
reaches from the table, marks the tracked conclusions among them
stale, and recomputes lazily.
An edit made to the world outside the tracker shows as a moved world
epoch (or as changed role bindings) and makes every conclusion stale.
The rule index is built once and shared by every session the tracker
opens.

The defining contract: after any sequence of updates, recomputed
intervals are identical to what discarding all state and re-proving
from scratch would give.  Everything here is an optimisation around
that equality, never a change to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .calculus import CertaintyInterval
from .engine import GoalDependencies, QueryConfig, QueryResult, QuerySession, RuleIndex
from .knowledge import Atom, KnowledgeBase, World, assert_evidence

__all__ = ["DependencyRecord", "DependencyTracker"]


@dataclass(slots=True)
class DependencyRecord:
    """One tracked conclusion and its cached interval.

    epoch is the world epoch at which the cached interval last changed.
    What the conclusion rests on is not stored here: it is the engine's
    goal table, whose edges the tracker walks on every update.
    """

    conclusion: Atom
    cached: CertaintyInterval
    epoch: int


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
        self._goals: dict[Atom, GoalDependencies] = {}
        self._readers: dict[Atom, list[Atom]] = {}
        self._stale: set[Atom] = set()
        self._epoch = world.epoch
        self._roles = dict(world.roles)
        self._index = RuleIndex(kb, world.roles)

    def _session(self) -> QuerySession:
        return QuerySession(
            self.kb,
            self.world,
            self.config,
            goals=self._goals,
            index=self._index,
        )

    def _sync(self) -> set[Atom]:
        """Drop every derived result if the world was edited outside us.

        Rebinding a role moves no epoch but regrounds every rule, so it
        counts as an edit too.  Returns the records this made stale: all
        of them, or none.
        """
        rebound = self.world.roles != self._roles
        if self.world.epoch == self._epoch and not rebound:
            return set()
        if rebound:
            self._roles = dict(self.world.roles)
            self._index = RuleIndex(self.kb, self.world.roles)
        self._epoch = self.world.epoch
        self._goals.clear()
        self._readers.clear()
        self._stale |= self.records.keys()
        return set(self.records)

    def query(self, goal: Atom) -> QueryResult:
        """Prove a goal and start tracking it (and its derived sub-goals)."""
        self._sync()
        result = self._prove(self._session(), goal)
        self.track(result)
        self._stale.discard(result.goal)
        return result

    def _prove(self, session: QuerySession, goal: Atom) -> QueryResult:
        """Prove through ``session`` and add the reader edges of every goal
        it derived.

        A proof that raises keeps nothing: the goals it derived before
        raising would have neither reader edges nor records, so they are
        dropped from the goal table and derived again when reached.
        """
        done = len(session.derived)
        try:
            result = session.prove(goal)
        except BaseException:
            for atom in session.derived[done:]:
                del self._goals[atom]
            raise
        readers = self._readers
        for atom in result.derived:
            deps = self._goals[atom]
            for read in deps.atoms | deps.subgoals:
                readers.setdefault(read, []).append(atom)
        return result

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
            node = self._goals[atom].node
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

        The update walks the kept reader edges upward from ``atom`` and
        purges every goal it reaches, with that goal's own edges, so its
        cost follows the goals reached.  An update that does not move
        the fact's effective interval is a complete no-op: nothing is
        invalidated, no epoch advances.  The returned atoms stay stale
        (their records keep the old interval) until ``recompute`` or a
        fresh ``query`` refreshes them.  A conclusion already stale, and
        not re-proved since, has no goal-table entry left for the update
        to reach, so it is not returned again.
        """
        invalidated = self._sync()
        if not assert_evidence(
            self.world, atom, interval, source, self.config.conflict_policy
        ):
            return invalidated
        self._epoch = self.world.epoch
        readers = self._readers
        reached: set[Atom] = set()
        frontier = [atom]
        while frontier:
            for goal in readers.get(frontier.pop(), ()):
                if goal not in reached:
                    reached.add(goal)
                    frontier.append(goal)
        for goal in reached:
            deps = self._goals.pop(goal)
            for read in deps.atoms | deps.subgoals:
                edges = readers[read]
                edges.remove(goal)
                if not edges:
                    del readers[read]
        invalidated |= reached & self.records.keys()
        self._stale |= invalidated
        return invalidated

    def recompute(self, invalidated: Iterable[Atom] | None = None) -> dict[Atom, CertaintyInterval]:
        """Re-prove stale conclusions, reusing every surviving sub-result."""
        self._sync()
        targets = set(invalidated) if invalidated is not None else set(self._stale)
        refreshed: dict[Atom, CertaintyInterval] = {}
        session = self._session()
        for atom in sorted(targets, key=str):
            result = self._prove(session, atom)
            self.track(result)
            refreshed[atom] = result.interval
        self._stale -= targets
        return refreshed

    def stale(self) -> frozenset[Atom]:
        """Tracked conclusions invalidated and not yet recomputed."""
        self._sync()
        return frozenset(self._stale)
