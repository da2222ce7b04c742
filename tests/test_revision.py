"""Dependency tracking and incremental recomputation."""

import random

import pytest

from possum.calculus import CertaintyInterval, ConflictPolicy, TNormFamily
from possum import revision
from possum.cbr import CaseTemplate, PrecedentLink
from possum.engine import QueryConfig, forward_saturate, prove
from possum.errors import DerivationCycleError
from possum.knowledge import Atom, KnowledgeBase, Rule, World, assert_evidence
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


def _invert(deps):
    """Reader edges as the inversion of a whole goal table."""
    readers = {}
    for goal, d in deps.items():
        for read in d.atoms | d.subgoals:
            readers.setdefault(read, set()).add(goal)
    return readers


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
        assert_evidence(world, Atom("shared"), CertaintyInterval(0.95, 1.0), "outside")
        assert tracker.stale() == set(tracker.records)
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
        tracker.query(Atom("top"))
        assert Atom("island-seed") not in tracker._readers
        assert _reader_sets(tracker) == _invert(tracker._goals)
        assert tracker.on_update(Atom("island-seed"), CertaintyInterval(0.7, 1.0), "s2") == set()

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

    @pytest.mark.parametrize("seed", range(4))
    def test_reader_edges_match_a_full_inversion(self, seed):
        # The oracle is the full-graph algorithm: invert every goal's
        # dependencies, then walk the inversion breadth-first.
        rng = random.Random(7300 + seed)
        kb, world, contexts = weighted_kb(rng, n_rules=200)
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        tracker = DependencyTracker(kb, world, config)
        goals = sorted(forward_saturate(kb, world.copy(), config), key=str)
        for goal in rng.sample(goals, 10):
            tracker.query(goal)
        for step in range(40):
            draw = rng.random()
            if draw < 0.5:
                update = random_update(rng, world, contexts)
                deps, records, epoch = dict(tracker._goals), set(tracker.records), world.epoch
                invalidated = tracker.on_update(*update)
                expected = set()
                if world.epoch != epoch:
                    readers = _invert(deps)
                    reached, frontier = set(), [update[0]]
                    while frontier:
                        for goal in readers.get(frontier.pop(0), ()):
                            if goal not in reached:
                                reached.add(goal)
                                frontier.append(goal)
                    expected = reached & records
                    assert set(tracker._goals) == set(deps) - reached, f"step {step}"
                assert invalidated == expected, f"step {step}"
            elif draw < 0.75:
                tracker.recompute()
            else:
                tracker.query(rng.choice(goals))
            assert _reader_sets(tracker) == _invert(tracker._goals), f"step {step}"


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
