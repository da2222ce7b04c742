"""Dependency tracking and incremental recomputation."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import possum
from possum.calculus import CERTAIN, IMPOSSIBLE, CertaintyInterval, ConflictPolicy, TNormFamily
from possum import calculus, revision
from possum.engine import (
    ProofNode,
    QueryConfig,
    QueryResult,
    QuerySession,
    explain,
    forward_saturate,
    premise_nodes,
    proof_to_dict,
    prove,
)
from possum.errors import ConflictError, DerivationCycleError, SourceConflictError, UnboundRoleError
from possum.knowledge import (
    Atom,
    CaseTemplate,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    World,
    assert_evidence,
    retract_evidence,
    substitute,
)
from possum.revision import DependencyTracker
from generators import random_update, weighted_kb

T2 = TNormFamily.T2


def _rule(ident, body, head, context=(), s=0.9, n=0.0):
    return Rule(
        ident,
        tuple(Atom(c) for c in context),
        tuple(Atom(b) for b in body),
        Atom(head),
        s,
        n,
        T2,
    )


def _invert(goals):
    """Premise edges as the inversion of a whole goal table."""
    readers = {}
    for goal, node in goals.items():
        for premise in premise_nodes(node):
            readers.setdefault(premise.goal, set()).add(goal)
    return readers


def _context_readers(kb, roles):
    """Stored-value reads inverted from the KB alone: for each context
    atom, every conclusion of a rule or linked case template whose
    context holds it.  A context with a role ``roles`` leaves unbound is
    never screened, so it holds no read.  A goal also reads its own fact
    slot, which this leaves out."""
    readers = {}
    for rule in kb.indexed_rules():
        try:
            goal = substitute(rule.consequent, roles)
            context = [substitute(atom, roles) for atom in rule.context]
        except UnboundRoleError:
            continue
        for read in context:
            readers.setdefault(read, set()).add(goal)
    return readers


def _held_edges(tracker):
    """The reader edges a tracker must hold: the inversion of its goal
    table plus each set-aside goal's set-aside proof.  With nothing set
    aside, that is ``_invert(tracker._goals)``."""
    return _invert({**tracker._goals, **tracker._aside})


def _reader_sets(tracker):
    """The tracker's reader edges as sets, checking no edge is kept twice."""
    out = {}
    for read, goals in tracker._readers.items():
        assert len(set(goals)) == len(goals), f"duplicate reader edge on {read}"
        out[read] = set(goals)
    return out


def _diamond():
    # shared -> left/right -> top, plus an unrelated island.
    kb = KnowledgeBase()
    kb.rules["rl"] = _rule("rl", ["shared"], "left")
    kb.rules["rr"] = _rule("rr", ["shared"], "right")
    kb.rules["rt"] = _rule("rt", ["left", "right"], "top")
    kb.rules["ri"] = _rule("ri", ["island-seed"], "island")
    world = World("w")
    assert_evidence(world, Atom("shared"), CertaintyInterval(0.8, 1.0), "s")
    assert_evidence(world, Atom("island-seed"), CertaintyInterval(0.6, 1.0), "s")
    return kb, world


class TestTracking:
    def test_query_tracks_every_derived_site(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        assert {r for r in tracker.records} == {
            Atom("top"), Atom("left"), Atom("right")
        }

    def test_premise_update_reaches_the_top(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        invalidated = tracker.on_update(
            Atom("shared"), CertaintyInterval(0.9, 1.0), "s2"
        )
        assert Atom("top") in invalidated

    def test_context_read_update_reaches_the_conclusion(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q", context=["gate"])
        world = World("w")
        assert_evidence(world, Atom("gate"), CertaintyInterval(0.9, 1.0), "s")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.7, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        invalidated = tracker.on_update(
            Atom("gate"), CertaintyInterval(0.95, 1.0), "s2"
        )
        assert invalidated == {Atom("q")}

    def test_derived_context_atom_screens_only_its_stored_value(self):
        # rh screens (g)'s stored value, which an update to (a) leaves as
        # it was: only (g)'s derivation moves, so (h) is not reached.
        kb = KnowledgeBase()
        kb.rules["rg"] = _rule("rg", ["a"], "g")
        kb.rules["rh"] = _rule("rh", ["b"], "h", context=["g"])
        world = World("w")
        for name in ("a", "b", "g"):
            assert_evidence(world, Atom(name), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("h"))
        tracker.query(Atom("g"))
        assert tracker.on_update(Atom("a"), CertaintyInterval(0.2, 1.0), "s") == {Atom("g")}
        assert tracker.recompute() == {Atom("g"): prove(kb, world.copy(), Atom("g")).interval}
        assert tracker.records[Atom("h")].cached == prove(kb, world.copy(), Atom("h")).interval
        # An update to (g)'s own evidence does reach (h).
        invalidated = tracker.on_update(Atom("g"), CertaintyInterval(0.3, 1.0), "s")
        assert invalidated == {Atom("g"), Atom("h")}

    def test_case_context_supports_only_its_own_conclusion(self):
        # c1 concludes (q A) behind gate (g1), c2 concludes (q B) behind
        # (g2): deriving (q A) never reads (g2).
        kb = KnowledgeBase()
        kb.case_library.declare_path(("p",))
        for ident, head, gate in (("c1", "?x", "g1"), ("c2", "B", "g2")):
            kb.case_library.add(
                CaseTemplate(
                    ident, ("p",), ("?x",), (Atom(gate),), (Atom("a"),),
                    Atom("q", (head,)), 0.9, 0.0, T2,
                )
            )
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w", roles={"?x": "A"})
        for name in ("g1", "g2", "a"):
            assert_evidence(world, Atom(name), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q", ("A",)))
        assert tracker.on_update(Atom("g2"), CertaintyInterval(0.9, 1.0), "s2") == set()
        assert tracker.on_update(Atom("g1"), CertaintyInterval(0.9, 1.0), "s2") == {
            Atom("q", ("A",))
        }

    def test_closed_gate_still_leaves_a_trace(self):
        # A context read that screened the rule OUT must still support
        # the conclusion: raising the gate atom can change the answer.
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q", context=["gate"])
        world = World("w")
        assert_evidence(world, Atom("gate"), CertaintyInterval(0.2, 1.0), "s")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.7, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        before = tracker.query(Atom("q")).interval
        assert before == CertaintyInterval(0.0, 1.0)
        invalidated = tracker.on_update(
            Atom("gate"), CertaintyInterval(0.9, 1.0), "s2"
        )
        assert Atom("q") in invalidated
        after = tracker.recompute()[Atom("q")]
        assert after.lower == pytest.approx(0.63, abs=1e-12)


class TestInvalidation:
    def test_update_hits_only_dependents(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        invalidated = tracker.on_update(
            Atom("shared"), CertaintyInterval(0.9, 1.0), "s2"
        )
        assert invalidated == {Atom("top"), Atom("left"), Atom("right")}
        assert tracker.stale() == invalidated

    def test_unrelated_update_invalidates_nothing(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        invalidated = tracker.on_update(
            Atom("free-floating"), CertaintyInterval(0.5, 1.0), "s"
        )
        assert invalidated == set()
        assert tracker.stale() == frozenset()

    def test_noop_update_changes_nothing(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        epoch = world.epoch
        # A second source strictly inside the current interval.
        invalidated = tracker.on_update(
            Atom("shared"), CertaintyInterval(0.5, 1.0), "weaker"
        )
        assert invalidated == set()
        assert world.epoch == epoch

    def test_edit_outside_the_tracker_is_seen(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        island = tracker._goals[Atom("island")]
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.95, 1.0), "outside")
        # Only the updated atom's reader cone goes stale.
        assert tracker.stale() == {Atom("top"), Atom("left"), Atom("right")}
        assert tracker._goals[Atom("island")] is island
        answer = tracker.query(Atom("top")).interval
        assert answer == prove(kb, world.copy(), Atom("top")).interval
        tracker.recompute()
        for atom, record in tracker.records.items():
            assert record.cached == prove(kb, world.copy(), atom).interval

    def test_update_after_outside_edit_returns_every_record(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.95, 1.0), "outside")
        invalidated = tracker.on_update(
            Atom("island-seed"), CertaintyInterval(0.7, 1.0), "s2"
        )
        assert invalidated == set(tracker.records)
        tracker.recompute(invalidated)
        for atom, record in tracker.records.items():
            assert record.cached == prove(kb, world.copy(), atom).interval

    def test_outside_retraction_keeps_the_proofs_it_does_not_reach(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        kept = {atom: tracker._goals[atom] for atom in (Atom("island"), Atom("island-seed"))}
        assert retract_evidence(world, Atom("shared"), "s")  # its only source: the fact goes
        assert Atom("shared") not in world.facts
        assert tracker.stale() == {Atom("top"), Atom("left"), Atom("right")}
        tracker.recompute()
        for atom, node in kept.items():
            assert tracker._goals[atom] is node
        for atom, record in tracker.records.items():
            fresh = prove(kb, world.copy(), atom)
            assert record.cached == fresh.interval
            assert proof_to_dict(tracker._goals[atom]) == proof_to_dict(fresh.proof)
        assert _reader_sets(tracker) == _invert(tracker._goals)

    def test_outside_edit_to_an_atom_nothing_reads_makes_nothing_stale(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        kept = dict(tracker._goals)
        assert_evidence(world, Atom("free-floating"), CertaintyInterval(0.5, 1.0), "s")
        retract_evidence(world, Atom("free-floating"), "s")
        assert tracker.stale() == frozenset()
        assert tracker._goals.keys() == kept.keys()
        assert all(tracker._goals[atom] is node for atom, node in kept.items())

    def test_context_atom_before_an_unbound_role_is_not_read(self):
        # The rule is inactive at its unbound role, so no derivation of
        # (q) screens (warm): moving it must unsettle nothing.
        kb = KnowledgeBase()
        context = (Atom("warm"), Atom("g", ("?x",)), Atom("late"))
        kb.rules["r"] = Rule("r", context, (Atom("a"),), Atom("q"), 0.9, 0.0, T2)
        world = World("w")
        assert_evidence(world, Atom("warm"), CertaintyInterval(0.9, 1.0), "s")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        node = tracker._goals[Atom("q")]
        assert tracker.on_update(Atom("warm"), CertaintyInterval(0.2, 1.0), "s") == set()
        assert tracker.stale() == frozenset()
        assert tracker._goals[Atom("q")] is node

    def test_burst_of_outside_edits_reaches_each_cone_once(self):
        # island-seed gains two sources that move nothing, around a move
        # of shared and a later source-only edit of shared: the log keeps
        # shared's move, so its cone goes stale all the same.
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        island = tracker._goals[Atom("island")]
        assert_evidence(world, Atom("island-seed"), CertaintyInterval(0.5, 1.0), "outside")
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.9, 1.0), "outside")
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.5, 1.0), "weak")
        assert_evidence(world, Atom("island-seed"), CertaintyInterval(0.4, 1.0), "again")
        assert tracker.stale() == {Atom("top"), Atom("left"), Atom("right")}
        assert tracker._goals[Atom("island")] is island
        tracker.recompute()
        for atom in tracker.records:
            fresh = prove(kb, world.copy(), atom)
            assert explain(tracker.query(atom)) == explain(fresh)
            assert proof_to_dict(tracker._goals[atom]) == proof_to_dict(fresh.proof)
        assert "via again+outside+s" in explain(tracker.query(Atom("island")))
        assert _reader_sets(tracker) == _invert(tracker._goals)

    def test_second_update_before_recompute(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.on_update(Atom("shared"), CertaintyInterval(0.9, 1.0), "s2")
        # Nothing memoized reads shared any more: the stale set stands.
        assert tracker.on_update(Atom("shared"), CertaintyInterval(0.95, 1.0), "s3") == set()
        assert tracker.stale() == {Atom("top"), Atom("left"), Atom("right")}
        tracker.recompute()
        assert tracker.records[Atom("top")].cached == prove(kb, world.copy(), Atom("top")).interval

    def test_role_rebinding_outside_the_tracker_is_seen(self):
        kb = KnowledgeBase()
        kb.rules["r"] = Rule("r", (), (Atom("b", ("?x",)),), Atom("q"), 0.9, 0.0, T2)
        world = World("w", roles={"?x": "A"})
        assert_evidence(world, Atom("b", ("A",)), CertaintyInterval(0.8, 1.0), "s")
        assert_evidence(world, Atom("b", ("B",)), CertaintyInterval(0.3, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        world.roles["?x"] = "B"
        assert tracker.stale() == {Atom("q")}
        assert tracker.query(Atom("q")).interval == prove(kb, world.copy(), Atom("q")).interval

    def test_rebinding_a_role_no_rule_mentions_makes_nothing_stale(self):
        kb = KnowledgeBase()
        kb.rules["r"] = Rule("r", (), (Atom("b", ("?x",)),), Atom("q"), 0.9, 0.0, T2)
        world = World("w", roles={"?x": "A", "?y": "C"})
        assert_evidence(world, Atom("b", ("A",)), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        nodes = dict(tracker._goals)
        index = tracker._index
        world.roles["?y"] = "D"
        world.roles["?z"] = "E"
        assert tracker.stale() == frozenset()
        assert tracker._index is index
        assert tracker._goals.keys() == nodes.keys()
        assert all(tracker._goals[atom] is node for atom, node in nodes.items())
        # The new bindings are kept: rebinding ?x later is still seen.
        assert_evidence(world, Atom("b", ("B",)), CertaintyInterval(0.3, 1.0), "s")
        world.roles["?x"] = "B"
        assert tracker.stale() == {Atom("q")}
        assert tracker.query(Atom("q")).interval == prove(kb, world.copy(), Atom("q")).interval

    def test_one_rule_index_per_tracker(self, monkeypatch):
        built = []

        class CountingIndex(revision.RuleIndex):
            def __init__(self, kb, roles):
                built.append(roles)
                super().__init__(kb, roles)

        monkeypatch.setattr(revision, "RuleIndex", CountingIndex)
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        tracker.on_update(Atom("shared"), CertaintyInterval(0.9, 1.0), "s2")
        tracker.on_update(Atom("island-seed"), CertaintyInterval(0.7, 1.0), "s2")
        tracker.recompute()
        assert len(built) == 1

    def test_untouched_records_keep_their_epoch(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        island_epoch = tracker.records[Atom("island")].epoch
        tracker.on_update(Atom("shared"), CertaintyInterval(0.95, 1.0), "s2")
        tracker.recompute()
        assert tracker.records[Atom("island")].epoch == island_epoch
        assert tracker.records[Atom("top")].epoch == world.epoch

    def test_recompute_clears_staleness(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.on_update(Atom("shared"), CertaintyInterval(0.9, 1.0), "s2")
        refreshed = tracker.recompute()
        assert tracker.stale() == frozenset()
        # left = right = 0.9 * 0.9; top conjoins them and detaches at 0.9.
        assert refreshed[Atom("top")].lower == pytest.approx(
            0.9 * (0.81 * 0.81), abs=1e-9
        )

    def test_fresh_query_unstales_its_goal(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.on_update(Atom("shared"), CertaintyInterval(0.9, 1.0), "s2")
        assert Atom("top") in tracker.stale()
        tracker.query(Atom("top"))
        assert Atom("top") not in tracker.stale()
        assert Atom("left") in tracker.stale()


class TestRecords:
    """Which goals get records, and the reader edges kept beside them."""

    def test_memo_hit_query_keeps_its_root(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        result = tracker.query(Atom("left"))
        assert result.derived == []
        assert set(tracker.records) == {Atom("top"), Atom("left"), Atom("right")}
        assert tracker.records[Atom("left")].cached == prove(kb, world.copy(), Atom("left")).interval

    def test_sub_goal_queried_later_as_a_root_gets_a_record(self):
        # shared is a fact-kind sub-goal of top: no record until queried.
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        assert Atom("shared") not in tracker.records
        result = tracker.query(Atom("shared"))
        assert result.derived == []
        assert set(tracker.records) == {Atom("top"), Atom("left"), Atom("right"), Atom("shared")}
        assert tracker.records[Atom("shared")].cached == CertaintyInterval(0.8, 1.0)

    def test_sync_after_outside_edit_leaves_no_stale_reader_edges(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.95, 1.0), "outside")
        assert tracker.stale() == {Atom("top"), Atom("left"), Atom("right")}
        # The set-aside goals keep the edges of the proofs they were set aside with.
        assert _reader_sets(tracker)[Atom("left")] == {Atom("top")}
        assert _reader_sets(tracker) == _held_edges(tracker)
        tracker.query(Atom("top"))
        assert tracker._aside == {}
        assert _reader_sets(tracker)[Atom("island-seed")] == {Atom("island")}
        assert _reader_sets(tracker) == _invert(tracker._goals)
        assert tracker.on_update(Atom("island-seed"), CertaintyInterval(0.7, 1.0), "s2") == {
            Atom("island")
        }

    def test_sync_after_role_rebinding_leaves_no_stale_reader_edges(self):
        kb = KnowledgeBase()
        kb.rules["r"] = Rule("r", (), (Atom("b", ("?x",)),), Atom("q"), 0.9, 0.0, T2)
        world = World("w", roles={"?x": "A"})
        assert_evidence(world, Atom("b", ("A",)), CertaintyInterval(0.8, 1.0), "s")
        assert_evidence(world, Atom("b", ("B",)), CertaintyInterval(0.3, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        world.roles["?x"] = "B"
        tracker.query(Atom("q"))
        assert Atom("b", ("A",)) not in tracker._readers
        assert _reader_sets(tracker) == _invert(tracker._goals)
        assert tracker.on_update(Atom("b", ("A",)), CertaintyInterval(0.9, 1.0), "s2") == set()
        assert tracker.on_update(Atom("b", ("B",)), CertaintyInterval(0.9, 1.0), "s2") == {Atom("q")}

    def test_query_that_raises_leaves_the_graph_consistent(self):
        # q <- a2, p and p <- q: a2 is derived before the cycle raises.
        kb = KnowledgeBase()
        kb.rules["ra"] = _rule("ra", ["b"], "a2")
        kb.rules["rq"] = _rule("rq", ["a2", "p"], "q")
        kb.rules["rp"] = _rule("rp", ["q"], "p")
        world = World("w")
        assert_evidence(world, Atom("b"), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        with pytest.raises(DerivationCycleError):
            tracker.query(Atom("q"))
        assert _reader_sets(tracker) == _invert(tracker._goals)
        tracker.query(Atom("a2"))
        assert set(tracker.records) == {Atom("a2")}
        assert tracker.on_update(Atom("b"), CertaintyInterval(0.9, 1.0), "s2") == {Atom("a2")}

    def test_atom_read_as_context_and_as_premise_is_one_reader_edge(self):
        # Each g<i> reads c three times: as r<i>'s context, and as the
        # premise of s<i> and of t<i>.  The update purges c's own goal
        # and every g<i>, which keep their edges on c.  It also shuts
        # r<i>'s gate, so recompute derives each g<i> again without r<i>:
        # each drops its edge on a, and keeps its one edge on c, read twice.
        kb = KnowledgeBase()
        goals = [Atom(f"g{i}") for i in range(7)]
        for i in range(7):
            kb.rules[f"r{i}"] = _rule(f"r{i}", ["a"], f"g{i}", context=["c"])
            kb.rules[f"s{i}"] = _rule(f"s{i}", ["c"], f"g{i}", s=0.5)
            kb.rules[f"t{i}"] = _rule(f"t{i}", ["c"], f"g{i}", s=0.4)
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.8, 1.0), "s")
        assert_evidence(world, Atom("c"), CertaintyInterval(0.7, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        for goal in goals:
            tracker.query(goal)
        premises = [node.goal for node in premise_nodes(tracker._goals[goals[0]])]
        assert premises == [Atom("a"), Atom("c"), Atom("c")]
        assert goals[0] in tracker._index.readers_of(Atom("c"))
        assert _reader_sets(tracker)[Atom("c")] == set(goals)
        assert _reader_sets(tracker) == _invert(tracker._goals)
        invalidated = tracker.on_update(Atom("c"), CertaintyInterval(0.2, 1.0), "s")
        assert invalidated == set(goals)
        assert _reader_sets(tracker)[Atom("c")] == set(goals)
        assert _reader_sets(tracker) == _held_edges(tracker)
        assert set(tracker.recompute()) == set(goals)
        assert _reader_sets(tracker) == _invert(tracker._goals)
        assert _reader_sets(tracker)[Atom("c")] == set(goals)
        assert Atom("a") not in tracker._readers
        assert tracker.stale() == frozenset()

    @pytest.mark.parametrize("seed", range(4))
    def test_reader_edges_match_a_full_inversion(self, seed):
        self._match_a_full_inversion(seed, roles=False)

    @pytest.mark.parametrize("seed", range(2))
    def test_reader_edges_match_a_full_inversion_with_roles(self, seed):
        # Rules with a role bound, and with one unbound in a consequent,
        # a context and an antecedent (``_with_roles``).  Their
        # conclusions are tracked, and some updates aim at the atoms
        # they read, so the oracle meets every instance shape.
        self._match_a_full_inversion(seed, roles=True)

    def _match_a_full_inversion(self, seed, roles):
        # The oracle is the full-graph algorithm: invert every read, the
        # stored values from the KB's rules and the premises from every
        # proof in the table, then walk the inversion breadth-first from
        # the goals that read the updated atom's stored value.
        rng = random.Random(7300 + seed)
        kb, world, contexts = weighted_kb(rng, n_rules=200)
        if roles:
            _with_roles(rng, kb, world)
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        tracker = DependencyTracker(kb, world, config)
        context_readers = _context_readers(kb, world.roles)
        goals = sorted(forward_saturate(kb, world.copy(), config), key=str)
        for goal in rng.sample(goals, 10):
            tracker.query(goal)
        if roles:
            for ident in ("far-context", "far-premise"):
                tracker.query(kb.rules[ident].consequent)
        for step in range(40):
            draw = rng.random()
            if draw < 0.5:
                update = random_update(rng, world, contexts)
                if roles and draw < 0.25:
                    role_atom = Atom(rng.choice(("seat", "gate", "lamp")), (rng.choice("AB"),))
                    update = (role_atom, *update[1:])
                table, records, epoch = dict(tracker._goals), set(tracker.records), world.epoch
                invalidated = tracker.on_update(*update)
                expected = set()
                if world.epoch != epoch:
                    readers = _invert(table)
                    stored = {update[0]} | context_readers.get(update[0], set())
                    reached = stored & table.keys()
                    frontier = list(reached)
                    while frontier:
                        for goal in readers.get(frontier.pop(0), ()):
                            if goal not in reached:
                                reached.add(goal)
                                frontier.append(goal)
                    expected = reached & records
                    assert set(tracker._goals) == set(table) - reached, f"step {step}"
                assert invalidated == expected, f"step {step}"
            elif draw < 0.75:
                tracker.recompute()
            else:
                tracker.query(rng.choice(goals))
            assert _reader_sets(tracker) == _held_edges(tracker), f"step {step}"


class TestEquivalence:
    def test_incremental_equals_scratch_on_diamond(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        for lo in (0.85, 0.9, 0.65):
            tracker.on_update(Atom("shared"), CertaintyInterval(lo, 1.0), "stream")
            tracker.recompute()
            fresh = prove(kb, world.copy(), Atom("top"))
            assert tracker.records[Atom("top")].cached == fresh.interval

    def test_incremental_equals_scratch_on_random_kbs(self):
        for seed in range(6):
            rng = random.Random(7100 + seed)
            kb, world, contexts = weighted_kb(rng, n_rules=18)
            config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
            tracker = DependencyTracker(kb, world, config)
            goals = sorted({r.consequent for r in kb.rules.values()}, key=str)[:6]
            for goal in goals:
                tracker.query(goal)
            for step in range(25):
                atom, interval, source = random_update(rng, world, contexts)
                tracker.on_update(atom, interval, source)
                tracker.recompute()
                for goal in goals:
                    fresh = prove(kb, world.copy(), goal, config)
                    assert tracker.records[goal].cached == fresh.interval, (
                        f"seed {seed}, step {step}, goal {goal}"
                    )

    def test_interleaved_updates_equal_scratch_saturation(self):
        rng = random.Random(7200)
        kb, world, contexts = weighted_kb(rng, n_rules=200)
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        tracker = DependencyTracker(kb, world, config)
        goals = sorted(forward_saturate(kb, world.copy(), config), key=str)
        for goal in goals:
            tracker.query(goal)
        for step in range(30):
            tracker.on_update(*random_update(rng, world, contexts))
            if rng.random() < 0.5:
                continue
            tracker.recompute()
            scratch = forward_saturate(kb, world.copy(), config)
            cached = {goal: tracker.records[goal].cached for goal in goals}
            assert cached == scratch, f"step {step}"

    def test_incremental_equals_scratch_on_deep_diamond_chain(self):
        # n0 -> l_i, r_i -> n_{i+1}: 2^25 root-to-leaf paths, 76 goals.
        depth = 25
        kb = KnowledgeBase()
        for i in range(depth):
            kb.rules[f"l{i}"] = _rule(f"l{i}", [f"n{i}"], f"l{i}")
            kb.rules[f"r{i}"] = _rule(f"r{i}", [f"n{i}"], f"r{i}", s=0.95)
            kb.rules[f"n{i + 1}"] = _rule(f"n{i + 1}", [f"l{i}", f"r{i}"], f"n{i + 1}", s=0.99)
        world = World("w")
        assert_evidence(world, Atom("n0"), CertaintyInterval(0.9, 1.0), "s")
        top = Atom(f"n{depth}")
        tracker = DependencyTracker(kb, world)
        tracker.query(top)
        invalidated = tracker.on_update(Atom("n0"), CertaintyInterval(0.99, 1.0), "s2")
        assert top in invalidated
        tracker.recompute()
        assert tracker.records[top].cached == prove(kb, world.copy(), top).interval

    def test_stale_answers_are_the_old_ones_until_recompute(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        before = tracker.query(Atom("top")).interval
        tracker.on_update(Atom("shared"), CertaintyInterval(0.95, 1.0), "s2")
        assert tracker.records[Atom("top")].cached == before
        tracker.recompute()
        assert tracker.records[Atom("top")].cached != before


def _chain_with_prior():
    # leaf -> mid -> top, where mid's stored prior [0.9, 1] outweighs what
    # rm derives from leaf, so moving leaf a little leaves mid where it is.
    kb = KnowledgeBase()
    kb.rules["rm"] = _rule("rm", ["leaf"], "mid")
    kb.rules["rt"] = _rule("rt", ["mid"], "top")
    world = World("w")
    assert_evidence(world, Atom("leaf"), CertaintyInterval(0.5, 1.0), "s1")
    assert_evidence(world, Atom("mid"), CertaintyInterval(0.9, 1.0), "prior")
    return kb, world


def _proof_text(node):
    """A proof's explanation without the session's notes."""
    return explain(QueryResult(node.goal, node.result, node, [], [], {}))


def _paths(tracker, goal):
    """The rule and case paths of ``goal``'s tracked proof, by provenance."""
    out = {}
    for path in tracker._goals[goal].children:
        for node in path.children if path.kind == "precedent" else (path,):
            if node.kind != "fact":
                out[node.provenance] = node
    return out


class TestEarlyCutoff:
    def test_source_only_update_reaches_tracked_proofs(self):
        # A second source inside (a)'s interval moves nothing, but the
        # proof names the fact's sources.
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "b")
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.8, 1.0), "s1")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("b"))
        epoch = world.epoch
        assert tracker.on_update(Atom("a"), CertaintyInterval(0.5, 1.0), "s2") == set()
        assert world.epoch == epoch
        assert tracker.stale() == frozenset()
        tracked = explain(tracker.query(Atom("b")))
        assert "via s1+s2" in tracked
        assert tracked == explain(prove(kb, world.copy(), Atom("b")))
        assert _reader_sets(tracker) == _invert(tracker._goals)

    def test_source_only_edit_outside_the_tracker_is_seen(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        epoch = world.epoch
        top = tracker._goals[Atom("top")]
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.5, 1.0), "outside")
        assert world.epoch == epoch
        # Nothing moved: only the fact's own proof is rewritten, in place.
        assert tracker.stale() == frozenset()
        assert tracker._goals[Atom("top")] is top
        tracked = explain(tracker.query(Atom("top")))
        assert "via outside+s" in tracked
        assert tracked == explain(prove(kb, world.copy(), Atom("top")))

    def test_unmoved_interval_stops_the_climb(self):
        kb, world = _chain_with_prior()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        top, mid = tracker._goals[Atom("top")], tracker._goals[Atom("mid")]
        invalidated = tracker.on_update(Atom("leaf"), CertaintyInterval(0.6, 1.0), "s1")
        assert invalidated == {Atom("mid"), Atom("top")}
        assert set(tracker.recompute(invalidated)) == invalidated
        # top is put back untouched; mid is derived again into its old node.
        assert tracker._goals[Atom("top")] is top
        assert tracker._goals[Atom("mid")] is mid
        assert tracker._aside == {}
        fresh = prove(kb, world.copy(), Atom("top"))
        assert _proof_text(top) == _proof_text(fresh.proof)
        assert proof_to_dict(top) == proof_to_dict(fresh.proof)
        assert "fact (leaf) = [0.6000, 1.0000]" in _proof_text(top)
        assert _reader_sets(tracker) == _invert(tracker._goals)

    def test_put_back_goal_costs_no_edge_work(self, monkeypatch):
        # leaf -> mid -> top<i> -> crown<i>: moving leaf a little leaves
        # mid where it is, so every top<i> and crown<i> goes back as it was.
        kb, world = _chain_with_prior()
        for i in range(4):
            kb.rules[f"rt{i}"] = _rule(f"rt{i}", ["mid"], f"top{i}")
            kb.rules[f"rc{i}"] = _rule(f"rc{i}", [f"top{i}"], f"crown{i}")
        tracker = DependencyTracker(kb, world)
        for i in range(4):
            tracker.query(Atom(f"crown{i}"))
        put_back = [Atom(f"top{i}") for i in range(4)] + [Atom(f"crown{i}") for i in range(4)]
        nodes = {atom: tracker._goals[atom] for atom in put_back}
        edges = {atom: tracker._readers[atom] for atom in [Atom("mid"), *put_back[:4]]}
        walked = []

        def recording(node, *children):
            walked.append(node.goal)
            return premise_nodes(node, *children)

        invalidated = tracker.on_update(Atom("leaf"), CertaintyInterval(0.6, 1.0), "s1")
        assert invalidated >= set(put_back)
        monkeypatch.setattr(revision, "premise_nodes", recording)
        tracker.recompute()
        assert set(walked) == {Atom("leaf"), Atom("mid")}
        assert all(tracker._goals[atom] is node for atom, node in nodes.items())
        assert all(tracker._readers[atom] is edges[atom] for atom in edges)
        assert _reader_sets(tracker) == _invert(tracker._goals)
        fresh = prove(kb, world.copy(), Atom("crown0"))
        assert proof_to_dict(tracker._goals[Atom("crown0")]) == proof_to_dict(fresh.proof)

    def test_moved_interval_climbs_on(self):
        kb, world = _chain_with_prior()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        top = tracker._goals[Atom("top")]
        tracker.on_update(Atom("mid"), CertaintyInterval(0.95, 1.0), "prior")
        tracker.recompute()
        assert tracker._goals[Atom("top")] is not top
        fresh = prove(kb, world.copy(), Atom("top"))
        assert tracker.records[Atom("top")].cached == fresh.interval
        assert proof_to_dict(tracker._goals[Atom("top")]) == proof_to_dict(fresh.proof)

    def test_query_before_recompute_settles_its_goal(self):
        kb, world = _chain_with_prior()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        top = tracker._goals[Atom("top")]
        tracker.on_update(Atom("leaf"), CertaintyInterval(0.6, 1.0), "s1")
        result = tracker.query(Atom("top"))
        assert result.proof is top
        assert result.derived == [Atom("leaf"), Atom("mid")]
        assert tracker.stale() == {Atom("mid")}
        assert tracker._aside == {}
        fresh = prove(kb, world.copy(), Atom("top"))
        assert proof_to_dict(result.proof) == proof_to_dict(fresh.proof)

    def test_cycle_raised_while_settling_keeps_nothing_it_touched(self):
        # q <- x, p; x <- y; y <- u at strength 0, so y never moves; and
        # p <- q behind context (u).  Raising u opens the cycle q -> p -> q
        # after x was put back on top of y, derived again.
        kb = KnowledgeBase()
        kb.rules["ry"] = _rule("ry", ["u"], "y", s=0.0)
        kb.rules["rx"] = _rule("rx", ["y"], "x")
        kb.rules["rq"] = _rule("rq", ["x", "p"], "q")
        kb.rules["rp"] = _rule("rp", ["q"], "p", context=["u"])
        world = World("w")
        assert_evidence(world, Atom("u"), CertaintyInterval(0.2, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        invalidated = tracker.on_update(Atom("u"), CertaintyInterval(0.9, 1.0), "s")
        assert invalidated == {Atom("q"), Atom("x"), Atom("y")}
        with pytest.raises(DerivationCycleError):
            tracker.recompute()
        assert tracker._aside == {}
        assert _reader_sets(tracker) == _invert(tracker._goals)
        for node in tracker._goals.values():
            assert {premise.goal for premise in premise_nodes(node)} <= tracker._goals.keys()
        result = tracker.query(Atom("x"))
        fresh = prove(kb, world.copy(), Atom("x"))
        assert proof_to_dict(result.proof) == proof_to_dict(fresh.proof)


    # A goal derived again keeps each rule or case path whose premises
    # are still the nodes it read, and fires the rest.

    def _gated_pair(self):
        # rb (behind gate) and ra conclude g over disjoint premises; rb
        # comes first in index order.
        kb = KnowledgeBase()
        kb.rules["rb"] = _rule("rb", ["b"], "g", context=["gate"], s=0.7)
        kb.rules["ra"] = _rule("ra", ["a"], "g", s=0.8)
        world = World("w")
        for name, lower in (("a", 0.6), ("b", 0.7), ("gate", 0.9)):
            assert_evidence(world, Atom(name), CertaintyInterval(lower, 1.0), "s")
        return kb, world

    def _same_as_scratch(self, tracker, kb, world, goal):
        fresh = prove(kb, world.copy(), goal)
        assert proof_to_dict(tracker._goals[goal]) == proof_to_dict(fresh.proof)
        assert _reader_sets(tracker) == _invert(tracker._goals)

    def test_only_the_rule_whose_premise_moved_fires_again(self, monkeypatch):
        kb, world = self._gated_pair()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("g"))
        before = _paths(tracker, Atom("g"))
        fired = []

        def counting(family, s, n, premise):
            fired.append(s)
            return detach(family, s, n, premise)

        detach = calculus.detach
        monkeypatch.setattr("possum.engine.detach", counting)
        assert tracker.on_update(Atom("a"), CertaintyInterval(0.8, 1.0), "s") == {Atom("g")}
        tracker.recompute()
        after = _paths(tracker, Atom("g"))
        assert after["rb"] is before["rb"]
        assert after["ra"] is not before["ra"]
        assert fired == [0.8]
        self._same_as_scratch(tracker, kb, world, Atom("g"))

    def test_a_kept_rule_whose_gate_closes_loses_its_path(self):
        kb, world = self._gated_pair()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("g"))
        before = _paths(tracker, Atom("g"))
        tracker.on_update(Atom("gate"), CertaintyInterval(0.1, 1.0), "s")
        tracker.recompute()
        # rb's set-aside path is passed over, so ra still finds its own.
        assert _paths(tracker, Atom("g")) == {"ra": before["ra"]}
        assert _paths(tracker, Atom("g"))["ra"] is before["ra"]
        self._same_as_scratch(tracker, kb, world, Atom("g"))
        tracker.on_update(Atom("gate"), CertaintyInterval(0.9, 1.0), "s")
        tracker.recompute()
        after = _paths(tracker, Atom("g"))
        assert after["ra"] is before["ra"] and after["rb"] is not before["rb"]
        self._same_as_scratch(tracker, kb, world, Atom("g"))

    def test_a_case_path_is_kept_under_its_precedent(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q")
        kb.case_library.declare_path(("p",))
        for ident, premise in (("c1", "a"), ("c2", "b")):
            kb.case_library.add(
                CaseTemplate(ident, ("p",), (), (), (Atom(premise),), Atom("q"), 0.9, 0.0, T2)
            )
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.5, 1.0), "s")
        assert_evidence(world, Atom("b"), CertaintyInterval(0.6, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        before = _paths(tracker, Atom("q"))
        tracker.on_update(Atom("a"), CertaintyInterval(0.7, 1.0), "s")
        tracker.recompute()
        after = _paths(tracker, Atom("q"))
        assert after.keys() == {"r", "c1", "c2"}
        assert after["c2"] is before["c2"]
        assert after["c1"] is not before["c1"] and after["r"] is not before["r"]
        self._same_as_scratch(tracker, kb, world, Atom("q"))

    def test_a_rule_never_takes_the_path_of_a_case_of_its_name(self):
        # Rule x, behind (gate), and case x read the same premise; x's
        # rule opens while the case's path is the only one set aside.
        kb = KnowledgeBase()
        kb.rules["x"] = _rule("x", ["a"], "q", context=["gate"], s=0.4)
        kb.case_library.declare_path(("p",))
        kb.case_library.add(CaseTemplate("x", ("p",), (), (), (Atom("a"),), Atom("q"), 0.9, 0.0, T2))
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.5, 1.0), "s")
        assert_evidence(world, Atom("gate"), CertaintyInterval(0.1, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("q"))
        case = _paths(tracker, Atom("q"))["x"]
        tracker.on_update(Atom("gate"), CertaintyInterval(0.9, 1.0), "s")
        tracker.recompute()
        kinds = [path.kind for path in tracker._goals[Atom("q")].children]
        assert kinds == ["rule-instance", "precedent"]
        assert tracker._goals[Atom("q")].children[1].children == (case,)
        self._same_as_scratch(tracker, kb, world, Atom("q"))


class TestWorldNotes:
    """A session's notes start with the world's current conflict notes."""

    def test_a_resolved_conflict_is_no_longer_noted(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "b")
        world = World("w")
        lenient = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        assert_evidence(world, Atom("a"), CertaintyInterval(0.8, 1.0), "s1")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.0, 0.2), "s2", ConflictPolicy.LENIENT)
        tracker = DependencyTracker(kb, world, lenient)
        assert [note.split(":")[0] for note in tracker.query(Atom("b")).diagnostics] == [
            "sources for (a) conflict (s1, s2)"
        ]
        tracker.on_update(Atom("a"), CertaintyInterval(0.8, 1.0), "s2")
        tracker.recompute()
        assert tracker.query(Atom("b")).diagnostics == []
        assert world.conflicts == {}


class TestOneWalk:
    """``recompute`` settles all its targets in one walk and reads each
    from the goal table; ``on_update`` climbs the reader edges and
    leaves them as they are."""

    def test_target_with_no_set_aside_entry_is_proved_and_recorded(self):
        kb, world = _diamond()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("island"))
        # The outside edit sets shared's reader cone aside, and recompute
        # of (left) alone discards the set-aside entries of (top) and (right).
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.95, 1.0), "outside")
        tracker.recompute([Atom("left")])
        tracker.on_update(Atom("island-seed"), CertaintyInterval(0.7, 1.0), "s2")
        assert Atom("island") in tracker._aside
        assert Atom("top") not in tracker._aside and Atom("top") not in tracker._goals
        refreshed = tracker.recompute([Atom("top"), Atom("island")])
        for atom in (Atom("top"), Atom("island")):
            fresh = prove(kb, world.copy(), atom)
            assert refreshed[atom] == fresh.interval
            assert tracker.records[atom].cached == fresh.interval
            assert tracker.records[atom].epoch == world.epoch
            assert proof_to_dict(tracker._goals[atom]) == proof_to_dict(fresh.proof)
        assert tracker.stale() == {Atom("right")}
        assert _reader_sets(tracker) == _invert(tracker._goals)

    def test_target_a_query_derived_again_is_recorded_from_the_table(self):
        # A query settles (leaf) below (top), but a fact node gets no
        # record from it: recompute, which derives nothing, records it.
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["leaf"], "top")
        world = World("w")
        assert_evidence(world, Atom("leaf"), CertaintyInterval(0.5, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("leaf"))
        tracker.query(Atom("top"))
        tracker.on_update(Atom("leaf"), CertaintyInterval(0.7, 1.0), "s")
        tracker.query(Atom("top"))
        assert tracker.stale() == {Atom("leaf")}
        assert tracker.recompute() == {Atom("leaf"): CertaintyInterval(0.7, 1.0)}
        assert tracker.records[Atom("leaf")].cached == CertaintyInterval(0.7, 1.0)
        assert tracker.stale() == frozenset()

    def test_refreshed_keys_come_in_str_order(self):
        # Derived children first, but named to sort after their parent.
        kb = KnowledgeBase()
        kb.rules["rz"] = _rule("rz", ["shared"], "z-left")
        kb.rules["ry"] = _rule("ry", ["shared"], "y-right")
        kb.rules["ra"] = _rule("ra", ["z-left", "y-right"], "a-top")
        world = World("w")
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("a-top"))
        invalidated = tracker.on_update(Atom("shared"), CertaintyInterval(0.9, 1.0), "s2")
        refreshed = tracker.recompute(invalidated)
        assert list(refreshed) == [Atom("a-top"), Atom("y-right"), Atom("z-left")]

    def test_refreshed_keys_sort_as_text_not_as_fields(self):
        # "(p a)" sorts before "(p)", since ' ' < ')'; ordering by
        # (predicate, arguments) would put (p) first.
        kb = KnowledgeBase()
        kb.rules["bare"] = Rule("bare", (), (Atom("leaf"),), Atom("p"), 0.9, 0.0, T2)
        kb.rules["applied"] = Rule("applied", (), (Atom("leaf"),), Atom("p", ("a",)), 0.9, 0.0, T2)
        world = World("w")
        assert_evidence(world, Atom("leaf"), CertaintyInterval(0.8, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        for goal in (Atom("p"), Atom("p", ("a",))):
            tracker.query(goal)
        invalidated = tracker.on_update(Atom("leaf"), CertaintyInterval(0.9, 1.0), "s")
        assert invalidated == {Atom("p"), Atom("p", ("a",))}
        assert list(tracker.recompute()) == [Atom("p", ("a",)), Atom("p")]
        assert list(tracker.recompute(invalidated)) == [Atom("p", ("a",)), Atom("p")]

    def test_unmoved_conclusion_keeps_its_epoch(self):
        kb, world = _chain_with_prior()
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        epochs = {atom: record.epoch for atom, record in tracker.records.items()}
        invalidated = tracker.on_update(Atom("leaf"), CertaintyInterval(0.6, 1.0), "s1")
        assert invalidated == {Atom("mid"), Atom("top")} == epochs.keys()
        assert world.epoch > max(epochs.values())
        tracker.recompute(invalidated)
        assert {atom: record.epoch for atom, record in tracker.records.items()} == epochs

    def test_role_bound_target_is_read_by_its_ground_goal(self):
        kb = KnowledgeBase()
        kb.rules["r"] = Rule(
            "r", (), (Atom("leaf", ("?who",)),), Atom("post", ("?who",)), 0.9, 0.0, T2
        )
        world = World("w", roles={"?who": "ann"})
        assert_evidence(world, Atom("leaf", ("ann",)), CertaintyInterval(0.5, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        target, ground = Atom("post", ("?who",)), Atom("post", ("ann",))
        tracker.query(target)
        invalidated = tracker.on_update(
            Atom("leaf", ("ann",)), CertaintyInterval(0.8, 1.0), "s"
        )
        assert invalidated == {ground}
        refreshed = tracker.recompute([target])
        fresh = prove(kb, world.copy(), target)
        assert refreshed == {ground: fresh.interval}
        assert tracker.records[ground].cached == fresh.interval
        assert tracker.stale() == frozenset()
        assert tracker._aside == {}

    def test_purge_of_goals_that_read_each_other_keeps_the_reader_edges(self):
        # top reads left and right, which read shared, and reads other,
        # which the update does not reach and which side reads too.
        kb = KnowledgeBase()
        kb.rules["rl"] = _rule("rl", ["shared"], "left")
        kb.rules["rr"] = _rule("rr", ["shared"], "right")
        kb.rules["rt"] = _rule("rt", ["left", "right", "other"], "top")
        kb.rules["rs"] = _rule("rs", ["other"], "side")
        world = World("w")
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.8, 1.0), "s")
        assert_evidence(world, Atom("other"), CertaintyInterval(0.7, 1.0), "s")
        tracker = DependencyTracker(kb, world)
        tracker.query(Atom("top"))
        tracker.query(Atom("side"))
        other = tracker._readers[Atom("other")]
        tracker.on_update(Atom("shared"), CertaintyInterval(0.9, 1.0), "s2")
        assert tracker._aside.keys() == {Atom(a) for a in ("shared", "left", "right", "top")}
        # top's set-aside proof keeps its edge on other, outside the cone.
        assert tracker._readers[Atom("other")] is other
        assert _reader_sets(tracker)[Atom("other")] == {Atom("side"), Atom("top")}
        assert _reader_sets(tracker) == _held_edges(tracker)
        tracker.recompute()
        assert _reader_sets(tracker) == _invert(tracker._goals)
        assert tracker._readers[Atom("other")] is other
        assert _reader_sets(tracker)[Atom("other")] == {Atom("side"), Atom("top")}


def _widest_fact(tracker, contexts):
    """The stored fact, context atoms aside, whose update sets aside the
    most goals: the goals in the table that read its stored value, and
    their reader cone.  Ties go to the first in ``str`` order."""
    goals = tracker._goals
    readers = _invert(goals)
    gates = {Atom(name) for name in contexts}

    def cone(atom):
        reached = {goal for goal in tracker._index.readers_of(atom) if goal in goals}
        frontier = list(reached)
        while frontier:
            for goal in readers.get(frontier.pop(), ()):
                if goal not in reached:
                    reached.add(goal)
                    frontier.append(goal)
        return len(reached)

    return max(sorted((a for a in tracker.world.facts if a not in gates), key=str), key=cone)


def _narrowed(rng, world, atom, step):
    """An update that raises ``atom``'s lower bound, so it moves unless
    the bound is already 1."""
    lower = world.facts[atom].effective.lower
    return atom, CertaintyInterval(round(rng.uniform(lower, 1.0), 6), 1.0), f"wide{step}"


def _with_roles(rng, kb, world):
    """Add rules that read the role ?who in a premise, a context and a
    consequent, and rules that read the role ?far, which the world leaves
    unbound, in a consequent, in a context after a bound atom, and in an
    antecedent behind a context; with facts for both bindings of each, A
    and B."""
    heads = sorted({r.consequent.predicate for r in kb.rules.values()})
    who = Atom("seat", ("?who",))
    kb.rules["who-premise"] = Rule(
        "who-premise", (), (who,), Atom(rng.choice(heads)), 0.8, 0.0, T2
    )
    kb.rules["who-context"] = Rule(
        "who-context", (Atom("gate", ("?who",)),), (Atom("atom0"),),
        Atom(rng.choice(heads)), 0.7, 0.0, T2,
    )
    kb.rules["who-head"] = Rule("who-head", (), (Atom("atom1"),), Atom("post", ("?who",)), 0.9, 0.0, T2)
    kb.rules["who-top"] = Rule(
        "who-top", (), (Atom("post", ("?who",)), Atom(heads[0])), Atom("summit"), 0.9, 0.0, T2
    )
    kb.rules["far-head"] = Rule("far-head", (), (Atom("atom2"),), Atom("post", ("?far",)), 0.6, 0.0, T2)
    kb.rules["far-context"] = Rule(
        "far-context", (Atom("lamp", ("?who",)), Atom("gate", ("?far",))), (Atom("atom3"),),
        Atom(rng.choice(heads)), 0.7, 0.0, T2,
    )
    kb.rules["far-premise"] = Rule(
        "far-premise", (Atom("gate", ("?who",)),), (Atom("atom4"), Atom("seat", ("?far",))),
        Atom(rng.choice(heads)), 0.8, 0.0, T2,
    )
    for name in ("A", "B"):
        for predicate in ("seat", "gate", "lamp"):
            interval = CertaintyInterval(round(rng.uniform(0.0, 1.0), 6), 1.0)
            assert_evidence(world, Atom(predicate, (name,)), interval, "s0")
    world.roles["?who"] = "A"


def _hexed(interval):
    return (interval.lower.hex(), interval.upper.hex())


class TestDifferential:
    """Tracked intervals and proofs against a from-scratch session, step by step.

    Steps mix updates that move an interval, updates that only add a
    source, edits to the world made outside the tracker (asserts,
    retractions, some of which delete a fact, and bursts of two or three
    edits that mix moves and source-only changes), role rebindings, a
    role bound and unbound again, recomputes of all or some of the stale
    set, and queries, which often land between an update and its
    recompute.  After each step every record not stale, and every
    query's answer, must equal scratch in its interval (as
    ``float.hex``), its explanation (notes excluded) and its node table,
    which shows a sub-proof held as two node objects where scratch has
    one.  The records' node tables are
    compared as one table under a common root, so sharing across
    records counts too; explanations, whose size follows the proof
    walked as a tree, are compared for the answers and for a sample of
    the records.  One kind of update takes the stored fact with the
    widest reader cone, as the benchmark's costliest updates do, and half
    the time a recompute of half its stale set follows.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_tracked_proofs_equal_scratch(self, seed):
        self._run(seed, n_rules=200)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(2))
    def test_tracked_proofs_equal_scratch_at_scale(self, seed):
        self._run(seed, n_rules=1000)

    @pytest.mark.parametrize("seed", range(4))
    def test_strict_tracked_proofs_equal_scratch(self, seed):
        assert self._run(seed, n_rules=200, policy=ConflictPolicy.STRICT)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(2))
    def test_strict_tracked_proofs_equal_scratch_at_scale(self, seed):
        assert self._run(seed, n_rules=1000, policy=ConflictPolicy.STRICT)

    def _run(self, seed, n_rules, policy=ConflictPolicy.LENIENT):
        """Returns the (call, error class name) of each recompute and
        query that raised."""
        rng = random.Random(7400 + seed)
        kb, world, contexts = weighted_kb(rng, n_rules=n_rules)
        _with_roles(rng, kb, world)
        config = QueryConfig(conflict_policy=policy)
        strict = policy is ConflictPolicy.STRICT
        tracker = DependencyTracker(kb, world, config)
        goals = sorted(forward_saturate(kb, world.copy(), config), key=str)
        goals.append(Atom("post", ("?who",)))
        for goal in rng.sample(goals, 40):
            tracker.query(goal)

        def same(tracked, fresh, where):
            assert _hexed(tracked.result) == _hexed(fresh.result), where
            assert _proof_text(tracked) == _proof_text(fresh), where
            assert proof_to_dict(tracked) == proof_to_dict(fresh), where

        def echo(step):
            # A source at total ignorance moves no interval.
            atom = rng.choice(sorted(world.facts, key=str))
            return atom, CertaintyInterval(0.0, 1.0), f"echo{step}"

        def retract():
            facts = sorted(world.facts, key=str)
            single = [atom for atom in facts if len(world.facts[atom].evidence) == 1]
            atom = rng.choice(single if single and rng.random() < 0.5 else facts)
            retract_evidence(world, atom, rng.choice(world.facts[atom].sources()), policy)

        # Pairs of role-free rules for one conclusion, the first with a
        # necessity: refuting a premise of the first caps the conclusion's
        # upper bound, and confirming one of the second raises its lower.
        by_head = {}
        for rule in kb.rules.values():
            if all(atom.is_ground() for atom in (rule.consequent, *rule.antecedents)):
                by_head.setdefault(rule.consequent, []).append(rule)
        clashes = [
            (first, second)
            for rules in by_head.values() for first in rules if first.necessity > 0.0
            for second in rules if second is not first
        ]

        def verdicts(step):
            # Sources holding atoms certainly false or certainly true:
            # a consensus conflict where rules derive otherwise, or one
            # between the paths of a clash.
            if rng.random() < 0.5:
                first, second = rng.choice(clashes)
                refuted = rng.choice(first.antecedents)
                fact = world.facts.get(refuted)
                # A stored fact keeps its lower bound, so no source refuses it.
                low = IMPOSSIBLE if fact is None else CertaintyInterval(*[fact.effective.lower] * 2)
                return [
                    (refuted, low, f"verdict{step}"),
                    (rng.choice(second.antecedents), CERTAIN, f"verdict{step}"),
                ]
            return [(rng.choice(goals[:-1]), rng.choice((IMPOSSIBLE, CERTAIN)), f"verdict{step}")]

        def edit(apply, *args):
            """``apply(*args)``; a world edit the strict policy refuses,
            which touches nothing, gives ``set()``."""
            edits = world.edits
            try:
                return apply(*args)
            except SourceConflictError:
                if not strict or world.edits != edits:
                    raise
                return set()

        def scratch_raises(goals):
            """The conflict classes a fresh derivation of ``goals`` raises."""
            raised = set()
            for goal in goals:
                try:
                    prove(kb, world.copy(), goal, config)
                except ConflictError as err:
                    raised.add(type(err))
            return raised

        raised = []

        def recompute(targets=None):
            wanted = set(tracker.stale() if targets is None else targets)
            try:
                tracker.recompute(targets)
            except ConflictError as err:
                raised.append(("recompute", type(err).__name__))
                assert type(err) in scratch_raises(wanted), where
            else:
                assert not strict or not scratch_raises(wanted), where

        for step in range(60):
            where = f"seed {seed}, step {step}"
            if strict and rng.random() < 0.25:
                for update in verdicts(step):
                    edit(tracker.on_update, *update)
                if rng.random() < 0.5:
                    recompute()
            draw = rng.random()
            if draw < 0.3:
                edit(tracker.on_update, *random_update(rng, world, contexts))
            elif draw < 0.35:
                atom = _widest_fact(tracker, contexts)
                stale = edit(tracker.on_update, *_narrowed(rng, world, atom, step))
                if rng.random() < 0.5:
                    recompute(rng.sample(sorted(stale, key=str), len(stale) // 2))
            elif draw < 0.43:
                tracker.on_update(*echo(step))
            elif draw < 0.48:
                edit(assert_evidence, world, *random_update(rng, world, contexts), policy)
            elif draw < 0.53:
                retract()
            elif draw < 0.58:
                for k in range(rng.randint(2, 3)):
                    kind = rng.random()
                    if kind < 0.4:
                        edit(assert_evidence, world, *random_update(rng, world, contexts), policy)
                    elif kind < 0.8:
                        assert_evidence(world, *echo(f"{step}.{k}"), policy)
                    else:
                        retract()
            elif draw < 0.62:
                world.roles["?who"] = "B" if world.roles["?who"] == "A" else "A"
            elif draw < 0.65:
                if world.roles.pop("?far", None) is None:
                    world.roles["?far"] = rng.choice(("A", "B"))
            elif draw < 0.76:
                stale = sorted(tracker.stale(), key=str)
                recompute(rng.sample(stale, len(stale) // 2) if rng.random() < 0.3 else None)
            else:
                for goal in rng.sample(goals, 3):
                    try:
                        fresh = prove(kb, world.copy(), goal, config)
                    except ConflictError as err:
                        with pytest.raises(ConflictError) as tracked:
                            tracker.query(goal)
                        assert type(tracked.value) is type(err), f"{where}, query {goal}"
                        raised.append(("query", type(err).__name__))
                        continue
                    result = tracker.query(goal)
                    same(result.proof, fresh.proof, f"{where}, query {goal}")
            scratch = QuerySession(kb, world.copy(), config)
            stale = tracker.stale()
            settled = [atom for atom in tracker.records if atom not in stale]
            tracked = [tracker._goals[atom] for atom in settled]
            fresh = [scratch.prove(atom).proof for atom in settled]
            for atom, node in zip(settled, fresh):
                assert _hexed(tracker.records[atom].cached) == _hexed(node.result), f"{where}, {atom}"
            assert proof_to_dict(_root(tracked)) == proof_to_dict(_root(fresh)), where
            for i in rng.sample(range(len(settled)), min(3, len(settled))):
                same(tracked[i], fresh[i], f"{where}, record {settled[i]}")
            assert _reader_sets(tracker) == _held_edges(tracker), where
        return raised


def _root(nodes):
    """One node over ``nodes``, so that one node table holds them all."""
    return ProofNode(Atom("records"), "aggregation", CertaintyInterval(0.0, 1.0), "all", None, tuple(nodes))


# Queries, updates and recomputes over one seeded weighted KB, printed
# with every interval as float.hex so that any change shows.
_TRACKER_SCRIPT = """\
import json, random
from possum.calculus import ConflictPolicy
from possum.engine import QueryConfig, forward_saturate
from possum.revision import DependencyTracker
from generators import random_update, weighted_kb

def hexed(interval):
    return [interval.lower.hex(), interval.upper.hex()]

rng = random.Random(41)
kb, world, contexts = weighted_kb(rng, n_rules=120)
config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
tracker = DependencyTracker(kb, world, config)
goals = sorted(forward_saturate(kb, world.copy(), config), key=str)
out = {"diagnostics": [], "recomputed": []}
for goal in rng.sample(goals, 12):
    out["diagnostics"].append(tracker.query(goal).diagnostics)
for step in range(30):
    tracker.on_update(*random_update(rng, world, contexts))
    if step % 3 == 2:
        refreshed = tracker.recompute()
        out["recomputed"].append([[str(a), hexed(iv)] for a, iv in refreshed.items()])
    if step % 5 == 4:
        out["diagnostics"].append(tracker.query(rng.choice(goals)).diagnostics)
out["records"] = [
    [str(a), hexed(r.cached), r.epoch] for a, r in tracker.records.items()
]
print(json.dumps(out))
"""


def _cone_scenario():
    """Updates to the stored fact with the widest reader cone, each
    followed by a query of a goal it made stale and by a recompute of
    the whole stale set or of half of it.  Returns, as strings, each
    step's query's derived goals and recompute's keys, and the records'
    order."""
    rng = random.Random(43)
    kb, world, contexts = weighted_kb(rng, n_rules=200)
    config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
    tracker = DependencyTracker(kb, world, config)
    for goal in sorted(forward_saturate(kb, world.copy(), config), key=str):
        tracker.query(goal)
    steps = []
    for step in range(8):
        atom = _widest_fact(tracker, contexts)
        stale = sorted(tracker.on_update(*_narrowed(rng, world, atom, step)), key=str)
        derived = tracker.query(rng.choice(stale)).derived if stale else []
        subset = rng.sample(stale, len(stale) // 2) if step % 2 else None
        recomputed = tracker.recompute(subset)
        steps.append({"derived": [str(a) for a in derived], "recomputed": [str(a) for a in recomputed]})
    return {"steps": steps, "records": [str(a) for a in tracker.records]}


def _under_hash_seeds(script, seeds):
    """The JSON that ``script`` prints, run in a fresh interpreter under
    each ``PYTHONHASHSEED``, with ``src`` and ``tests`` on the path."""
    src = str(Path(possum.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    runs = []
    for seed in seeds:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([src, tests])}
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        runs.append(json.loads(done.stdout))
    return runs


class TestTrackerOrder:
    def test_tracker_output_follows_no_hash_seed(self):
        runs = _under_hash_seeds(_TRACKER_SCRIPT, ("0", "1", "2"))
        assert runs[0]["records"] and any(runs[0]["recomputed"])
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_settling_order_follows_no_hash_seed(self):
        # Reader edges are the climb's order, and through it settling's.
        script = "import json, test_revision; print(json.dumps(test_revision._cone_scenario()))"
        runs = _under_hash_seeds(script, ("0", "1"))
        assert all(step["derived"] for step in runs[0]["steps"]), "every query settles some of the cone"
        assert runs[1] == runs[0]
