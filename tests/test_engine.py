"""Context screening, backward chaining, forward saturation, proofs."""

import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import possum
from possum.calculus import (
    CertaintyInterval,
    ConflictPolicy,
    TNormFamily,
    TOTAL_IGNORANCE,
)
from possum.cbr import CaseTemplate, PrecedentLink
from possum.dsl import parse_kb, parse_world
from possum.engine import (
    QueryConfig,
    QuerySession,
    RuleIndex,
    explain,
    forward_saturate,
    proof_to_dict,
    prove,
    result_to_dict,
)
from possum.errors import DerivationCycleError, UnboundRoleError
from possum.knowledge import Atom, KnowledgeBase, Rule, World, assert_evidence, validate
from possum.revision import DependencyTracker
from conftest import ForgetfulGoals
from generators import diamond_kb, weighted_kb

T1 = TNormFamily.T1
T2 = TNormFamily.T2
T3 = TNormFamily.T3

DATA = resources.files("possum").joinpath("data")


def _rule(ident, body, head, context=(), s=0.9, n=0.0, family=T2):
    return Rule(
        ident,
        tuple(Atom(c) for c in context),
        tuple(Atom(b) for b in body),
        Atom(head),
        s,
        n,
        family,
    )


def _fact(world, name, lo, hi=1.0, source="s"):
    assert_evidence(world, Atom(name), CertaintyInterval(lo, hi), source)


def _provenances(node, kind):
    found = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.kind == kind:
            found.append(n.provenance)
        stack.extend(n.children)
    return found


@pytest.fixture()
def demo():
    kb = parse_kb(DATA.joinpath("demo.kb").read_text(), "demo.kb")
    world = parse_world(DATA.joinpath("m1.world").read_text(), "m1.world")
    return kb, world


class TestScreening:
    def test_cold_context_deactivates_rule(self):
        kb = KnowledgeBase()
        kb.rules["hot"] = _rule("hot", ["a"], "q", context=["warm"])
        kb.rules["cold"] = _rule("cold", ["a"], "q", context=["chill"])
        kb.rules["free"] = _rule("free", ["a"], "q")
        world = World("w")
        _fact(world, "warm", 0.8)
        _fact(world, "chill", 0.2)
        result = prove(kb, world, Atom("q"))
        assert set(_provenances(result.proof, "rule-instance")) == {"hot", "free"}

    def test_threshold_is_compared_to_lower_bound(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q", context=["g"])
        world = World("w")
        assert_evidence(world, Atom("g"), CertaintyInterval(0.4, 1.0), "s")
        assert _provenances(prove(kb, world, Atom("q")).proof, "rule-instance") == []
        low_bar = QueryConfig(context_threshold=0.4)
        result = prove(kb, world, Atom("q"), low_bar)
        assert _provenances(result.proof, "rule-instance") == ["r"]

    def test_joint_context_graded_by_min(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q", context=["u", "v"])
        world = World("w")
        _fact(world, "u", 0.6)
        _fact(world, "v", 0.6)
        # Min of the two lower bounds is 0.6; a product would be 0.36.
        assert _provenances(prove(kb, world, Atom("q")).proof, "rule-instance") == ["r"]

    def test_inactive_rule_contributes_no_proof_step(self):
        kb = KnowledgeBase()
        kb.rules["on"] = _rule("on", ["a"], "q", context=["warm"])
        kb.rules["off"] = _rule("off", ["a"], "q", context=["chill"])
        world = World("w")
        _fact(world, "warm", 0.9)
        _fact(world, "chill", 0.1)
        _fact(world, "a", 0.8)
        result = prove(kb, world, Atom("q"))
        used = _provenances(result.proof, "rule-instance")
        assert "on" in used
        assert "off" not in used

    def test_context_reads_recorded_in_dependencies(self):
        kb = KnowledgeBase()
        kb.rules["off"] = _rule("off", ["a"], "q", context=["chill"])
        world = World("w")
        _fact(world, "chill", 0.1)
        _fact(world, "a", 0.8)
        result = prove(kb, world, Atom("q"))
        # The screen decision read (chill); revision must know that.
        assert Atom("chill") in result.dependencies[Atom("q")].atoms

    def test_memo_hit_reports_the_same_dependencies(self):
        kb = KnowledgeBase()
        kb.rules["m"] = _rule("m", ["a"], "mid", context=["warm"])
        kb.rules["t"] = _rule("t", ["mid", "b"], "top")
        world = World("w")
        for name, lower in (("warm", 0.9), ("a", 0.8), ("b", 0.7)):
            _fact(world, name, lower)
        session = QuerySession(kb, world)
        first = session.prove(Atom("top"))
        again = session.prove(Atom("top"))
        # A context is read, never proved: (warm) is no derived goal.
        assert first.derived == [Atom("a"), Atom("mid"), Atom("b"), Atom("top")]
        assert again.derived == []
        assert again.dependencies == first.dependencies
        assert set(first.dependencies) == set(first.derived)

    def test_unbound_context_role_noted(self):
        kb = KnowledgeBase()
        kb.rules["r"] = Rule(
            "r", (Atom("g", ("?x",)),), (Atom("a"),), Atom("q"), 0.9, 0.0, T2
        )
        world = World("w")
        _fact(world, "a", 0.8)
        result = prove(kb, world, Atom("q"))
        assert any("rule r inactive" in d for d in result.diagnostics)

    def test_unbound_case_context_role_noted(self):
        kb = KnowledgeBase()
        kb.case_library.declare_path(("p",))
        kb.case_library.add(
            CaseTemplate(
                "c", ("p",), (), (Atom("g", ("?x",)),), (Atom("a"),), Atom("q"), 0.9, 0.0, T2
            )
        )
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w")
        _fact(world, "a", 0.8)
        result = prove(kb, world, Atom("q"))
        assert result.interval == TOTAL_IGNORANCE
        assert any("case c inactive" in d for d in result.diagnostics)

    @staticmethod
    def _unbound_consequents():
        # Rule r and case c conclude (q ?x); the world binds no ?x.
        x = Atom("q", ("?x",))
        kb = KnowledgeBase()
        kb.rules["r"] = Rule("r", (), (Atom("a"),), x, 0.9, 0.0, T2)
        kb.rules["s"] = Rule("s", (), (Atom("a"),), Atom("q", ("k",)), 0.9, 0.0, T2)
        kb.case_library.declare_path(("p",))
        kb.case_library.add(CaseTemplate("c", ("p",), ("?x",), (), (Atom("a"),), x, 0.9, 0.0, T2))
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w")
        _fact(world, "a", 0.8)
        return kb, world

    def test_unbound_consequent_role_noted_by_query(self):
        kb, world = self._unbound_consequents()
        notes = prove(kb, world, Atom("q", ("k",))).diagnostics
        for ident in ("rule r", "case c"):
            assert notes.count(f"{ident} inactive: role ?x is unbound in (q ?x)") == 1

    def test_unbound_consequent_role_noted_by_saturate(self):
        kb, world = self._unbound_consequents()
        session = QuerySession(kb, world)
        assert set(session.saturate()) == {Atom("q", ("k",))}
        for ident in ("rule r", "case c"):
            assert session.diagnostics.count(
                f"{ident} inactive: role ?x is unbound in (q ?x)"
            ) == 1

    @staticmethod
    def _unbound_antecedent():
        # r reads (p ?x), which the world cannot bind; s answers (q) alone.
        kb = KnowledgeBase()
        kb.rules["r"] = Rule("r", (), (Atom("p", ("?x",)),), Atom("q"), 0.9, 0.0, T2)
        kb.rules["s"] = _rule("s", ["a"], "q")
        world = World("w")
        _fact(world, "a", 0.8)
        alone = KnowledgeBase()
        alone.rules["s"] = kb.rules["s"]
        return kb, world, prove(alone, world.copy(), Atom("q")).interval

    def test_unbound_antecedent_role_noted_by_query(self):
        kb, world, expected = self._unbound_antecedent()
        result = prove(kb, world, Atom("q"))
        assert result.interval == expected
        assert _provenances(result.proof, "rule-instance") == ["s"]
        assert result.diagnostics.count("rule r inactive: role ?x is unbound in (p ?x)") == 1

    def test_unbound_antecedent_role_noted_by_saturate(self):
        kb, world, expected = self._unbound_antecedent()
        session = QuerySession(kb, world)
        assert session.saturate() == {Atom("q"): expected}
        assert session.diagnostics == ["rule r inactive: role ?x is unbound in (p ?x)"]

    @pytest.mark.parametrize("order", [("s", "t", "r"), ("r", "s", "t")])
    def test_unbound_role_notes_follow_rule_order(self, order):
        # Deriving (q k) notes r where it stands in the KB among the rules
        # for q: after the premise (b) noted t, or before it.
        rules = {
            "r": Rule("r", (), (Atom("a"),), Atom("q", ("?x",)), 0.9, 0.0, T2),
            "s": Rule("s", (), (Atom("b"),), Atom("q", ("k",)), 0.9, 0.0, T2),
            "t": Rule("t", (Atom("g", ("?y",)),), (Atom("a"),), Atom("b"), 0.9, 0.0, T2),
        }
        kb = KnowledgeBase()
        for ident in order:
            kb.rules[ident] = rules[ident]
        notes = prove(kb, World("w"), Atom("q", ("k",))).diagnostics
        noted = [n.split()[1] for n in notes if n.startswith("rule ")]
        assert noted == (["t", "r"] if order[0] == "s" else ["r", "t"])

    def test_template_concluding_another_predicate_is_not_noted(self):
        # k2 is filed under q's link path but concludes (r ?y): q's link
        # does not instantiate it, so deriving (q) says nothing about it.
        kb = KnowledgeBase()
        kb.case_library.declare_path(("p",))
        for ident, head in (("k1", Atom("q")), ("k2", Atom("r", ("?y",)))):
            kb.case_library.add(
                CaseTemplate(ident, ("p",), (), (), (Atom("a"),), head, 0.9, 0.0, T2)
            )
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w")
        _fact(world, "a", 0.8)
        result = prove(kb, world, Atom("q"))
        assert _provenances(result.proof, "case-instance") == ["k1"]
        assert result.diagnostics == []


class TestRuleIndex:
    def test_shared_predicate_grounds_to_different_atoms(self):
        kb = KnowledgeBase()
        kb.rules["bound"] = Rule("bound", (), (Atom("a"),), Atom("p", ("?x",)), 0.9, 0.0, T2)
        kb.rules["fixed"] = Rule("fixed", (), (Atom("b"),), Atom("p", ("B",)), 0.5, 0.0, T2)
        world = World("w", roles={"?x": "A"})
        _fact(world, "a", 0.8)
        _fact(world, "b", 0.6)
        index = RuleIndex(kb, world.roles)
        assert set(index.concluding) == {Atom("p", ("A",)), Atom("p", ("B",))}
        for goal, used in ((Atom("p", ("A",)), "bound"), (Atom("p", ("B",)), "fixed")):
            result = prove(kb, world.copy(), goal)
            assert [c.provenance for c in result.proof.children] == [used]

    def test_rules_concluding_one_atom_aggregate_in_kb_order(self):
        kb = KnowledgeBase()
        for ident, body, s in (("z", "a", 0.9), ("a", "b", 0.7), ("m", "c", 0.5)):
            kb.rules[ident] = _rule(ident, [body], "q", s=s)
        kb.rules["other"] = _rule("other", ["a"], "elsewhere")
        world = World("w")
        for name, lo in (("a", 0.8), ("b", 0.6), ("c", 0.4)):
            _fact(world, name, lo)
        index = RuleIndex(kb, world.roles)
        assert [i.rule.identifier for i in index.rules_for(Atom("q"))] == ["z", "a", "m"]
        result = prove(kb, world, Atom("q"))
        assert result.proof.kind == "aggregation"
        assert [c.provenance for c in result.proof.children] == ["z", "a", "m"]
        assert result.interval.lower == pytest.approx(
            1 - (1 - 0.9 * 0.8) * (1 - 0.7 * 0.6) * (1 - 0.5 * 0.4), abs=1e-12
        )

    def test_linked_templates_follow_the_rules(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q")
        library = kb.case_library
        library.declare_path(("p", "sub"))
        for ident, path, head in (
            ("t1", ("p", "sub"), "q"),
            ("t2", ("p",), "q"),
            ("t0", ("p",), "other"),
        ):
            library.add(CaseTemplate(ident, path, (), (), (Atom("a"),), Atom(head), 0.9, 0.0, T2))
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        index = RuleIndex(kb, {})
        assert [i.rule.identifier for i in index.rules_for(Atom("q"))] == ["r", "t2", "t1"]
        assert set(index.concluding) == {Atom("q")}


class TestBackwardChaining:
    def test_two_step_chain(self):
        kb = KnowledgeBase()
        kb.rules["r1"] = _rule("r1", ["a"], "b", s=0.9)
        kb.rules["r2"] = _rule("r2", ["b"], "c", s=0.5)
        world = World("w")
        _fact(world, "a", 0.8)
        result = prove(kb, world, Atom("c"))
        assert result.interval.lower == pytest.approx(0.5 * 0.9 * 0.8, abs=1e-12)
        assert result.interval.upper == 1.0

    def test_necessity_caps_upper_bound(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q", s=0.9, n=0.8)
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.0, 0.3), "s")
        result = prove(kb, world, Atom("q"))
        # Upper = 1 - T2(necessity, 1 - premise upper) = 1 - 0.8 * 0.7
        assert result.interval.upper == pytest.approx(1.0 - 0.8 * 0.7, abs=1e-12)

    def test_parallel_rules_aggregate_under_most_conservative_family(self):
        kb = KnowledgeBase()
        kb.rules["ruleA"] = _rule("ruleA", ["a"], "g", s=0.85, family=T2)
        kb.rules["ruleB"] = _rule("ruleB", ["b"], "g", s=0.75, family=T3)
        world = World("w")
        _fact(world, "a", 0.7)
        _fact(world, "b", 0.8)
        result = prove(kb, world, Atom("g"))
        # Each rule detaches under its own family (0.85*0.7 and
        # min(0.75, 0.8)); T2 is the more conservative of the two, so
        # its conorm combines the detached lowers.
        assert result.interval.lower == pytest.approx(
            1.0 - (1.0 - 0.595) * (1.0 - 0.75), abs=1e-12
        )
        assert result.proof.provenance == "T2"

    def test_stored_fact_joins_by_consensus(self):
        kb = KnowledgeBase()
        kb.rules["ruleA"] = _rule("ruleA", ["a"], "g", s=0.85)
        kb.rules["ruleB"] = _rule("ruleB", ["b"], "g", s=0.75)
        world = World("w")
        _fact(world, "a", 0.7)
        _fact(world, "b", 0.8)
        assert_evidence(world, Atom("g"), CertaintyInterval(0.2, 0.9), "prior")
        result = prove(kb, world, Atom("g"))
        assert result.interval.lower == pytest.approx(0.838, abs=1e-12)
        assert result.interval.upper == 0.9
        kinds = {n.kind for n in result.proof.children}
        assert kinds == {"rule-instance", "fact"}

    def test_fact_only_goal_answers_directly(self):
        world = World("w")
        assert_evidence(world, Atom("g"), CertaintyInterval(0.3, 0.6), "src")
        result = prove(KnowledgeBase(), world, Atom("g"))
        assert result.interval == CertaintyInterval(0.3, 0.6)
        assert result.proof.kind == "fact"
        assert result.proof.provenance == "src"

    def test_unknown_goal_is_total_ignorance_with_note(self):
        result = prove(KnowledgeBase(), World("w"), Atom("mystery"))
        assert result.interval == TOTAL_IGNORANCE
        assert result.proof.provenance == "unknown"
        assert any("no support" in d for d in result.diagnostics)

    def test_fact_from_a_source_named_unknown_is_support(self):
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.9, 1.0), "unknown")
        result = prove(KnowledgeBase(), world, Atom("a"))
        assert result.interval == CertaintyInterval(0.9, 1.0)
        assert result.proof.provenance == "unknown"
        assert result.diagnostics == []

    def test_goal_roles_bound_from_world(self):
        kb = KnowledgeBase()
        world = World("w", roles={"?x": "Mobil"})
        assert_evidence(world, Atom("p", ("Mobil",)), CertaintyInterval(0.5, 1.0), "s")
        result = prove(kb, world, Atom("p", ("?x",)))
        assert result.goal == Atom("p", ("Mobil",))
        assert result.interval == CertaintyInterval(0.5, 1.0)

    def test_unbound_goal_role_raises(self):
        with pytest.raises(UnboundRoleError):
            prove(KnowledgeBase(), World("w"), Atom("p", ("?ghost",)))

    def test_cycle_reported_as_atom_path(self):
        kb = KnowledgeBase()
        kb.rules["r1"] = _rule("r1", ["a"], "b")
        kb.rules["r2"] = _rule("r2", ["b"], "a")
        with pytest.raises(DerivationCycleError) as caught:
            prove(kb, World("w"), Atom("a"))
        assert str(caught.value) == "derivation cycle: (a) -> (b) -> (a)"

    def test_self_loop_reported(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "a")
        with pytest.raises(DerivationCycleError) as caught:
            forward_saturate(kb, World("w"))
        assert str(caught.value) == "derivation cycle: (a) -> (a)"

    def test_cycle_through_precedent_link_reported_as_validate_does(self):
        # p <- q by rule; q <- p by the case the link on q instantiates.
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["q"], "p")
        kb.case_library.add(CaseTemplate("c", ("k",), (), (), (Atom("p"),), Atom("q"), 0.9, 0.0, T2))
        kb.precedent_links["q"] = PrecedentLink("q", ("k",), T2)
        assert validate(kb).cycles == [["p", "q", "p"]]
        with pytest.raises(DerivationCycleError) as caught:
            prove(kb, World("w"), Atom("p"))
        assert str(caught.value) == "derivation cycle: (p) -> (q) -> (p)"

    def test_long_acyclic_chain_agrees_with_saturation(self):
        # An acyclic KB that validates: a0 is a fact, each ai derives
        # from a(i-1).  Saturation fills its memo bottom-up and answers.
        kb = KnowledgeBase()
        for i in range(1, 71):
            kb.rules[f"r{i}"] = _rule(f"r{i}", [f"a{i - 1}"], f"a{i}", s=1.0)
        world = World("w")
        _fact(world, "a0", 0.9)
        assert validate(kb).ok()
        saturated = forward_saturate(kb, world)[Atom("a70")]
        assert saturated == CertaintyInterval(0.9, 1.0)
        assert prove(kb, world, Atom("a70")).interval == saturated

    def test_memo_does_not_change_answers(self):
        for seed in range(8):
            rng = random.Random(900 + seed)
            kb, world, _ = weighted_kb(rng, n_rules=14)
            config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
            goals = sorted(
                {r.consequent for r in kb.rules.values()}, key=str
            )
            with_memo = QuerySession(kb, world, config)
            without = QuerySession(kb, world, config, goals=ForgetfulGoals())
            for goal in goals:
                assert with_memo.evaluate(goal) == without.evaluate(goal)

    def test_strict_conflict_propagates_from_aggregation(self):
        kb = KnowledgeBase()
        kb.rules["yes"] = _rule("yes", ["a"], "g", s=1.0, n=1.0, family=T1)
        kb.rules["no"] = _rule("no", ["b"], "g", s=1.0, n=1.0, family=T1)
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(1.0, 1.0), "s")
        assert_evidence(world, Atom("b"), CertaintyInterval(0.0, 0.0), "s")
        from possum.calculus import EvidenceConflictError

        with pytest.raises(EvidenceConflictError):
            prove(kb, world, Atom("g"))
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        result = prove(kb, world, Atom("g"), config)
        assert result.interval == TOTAL_IGNORANCE
        assert any("conflict" in d for d in result.diagnostics)

    @pytest.mark.parametrize(
        "rules, prior, note",
        [
            (("yes", "no"), None, "support paths for (c) conflict"),
            (("yes",), CertaintyInterval(0.0, 0.5), "sources for (c) conflict"),
        ],
        ids=["aggregate", "consensus"],
    )
    def test_lenient_conflict_noted_once(self, rules, prior, note):
        # left and right both read (c); with a goal table that never
        # answers, (c) is derived, and its conflict found, twice.
        kb = KnowledgeBase()
        bodies = {"yes": "a", "no": "b"}
        for ident in rules:
            kb.rules[ident] = _rule(ident, [bodies[ident]], "c", s=1.0, n=1.0, family=T1)
        kb.rules["l"] = _rule("l", ["c"], "left")
        kb.rules["r"] = _rule("r", ["c"], "right")
        kb.rules["t"] = _rule("t", ["left", "right"], "top")
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(1.0, 1.0), "s")
        assert_evidence(world, Atom("b"), CertaintyInterval(0.0, 0.0), "s")
        if prior is not None:
            assert_evidence(world, Atom("c"), prior, "prior")
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        session = QuerySession(kb, world, config, goals=ForgetfulGoals())
        notes = session.prove(Atom("top")).diagnostics
        assert [n for n in notes if n.startswith(note)] == [notes[0]]


class TestAskables:
    def _setup(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["hunch"], "verdict", s=0.8)
        world = World("w")
        world.askables.add("hunch")
        return kb, world

    def test_askable_prompted_once_and_recorded(self):
        kb, world = self._setup()
        calls = []

        def asker(atom):
            calls.append(atom)
            return CertaintyInterval(0.6, 1.0)

        config = QueryConfig(interactive=True)
        session = QuerySession(kb, world, config, asker)
        first = session.prove(Atom("verdict"))
        assert first.interval.lower == pytest.approx(0.8 * 0.6, abs=1e-12)
        session.prove(Atom("verdict"))
        assert calls == [Atom("hunch")]
        assert world.facts[Atom("hunch")].sources() == ["user"]

    def test_declined_askable_stays_unknown(self):
        kb, world = self._setup()
        calls = []

        def asker(atom):
            calls.append(atom)
            return None

        config = QueryConfig(interactive=True)
        session = QuerySession(kb, world, config, asker)
        result = session.prove(Atom("verdict"))
        assert result.interval == TOTAL_IGNORANCE
        assert calls == [Atom("hunch")]
        assert Atom("hunch") not in world.facts

    def test_not_interactive_never_asks(self):
        kb, world = self._setup()
        calls = []
        session = QuerySession(kb, world, None, lambda a: calls.append(a))
        session.prove(Atom("verdict"))
        assert calls == []

    def test_answered_askable_survives_into_new_sessions(self):
        kb, world = self._setup()
        config = QueryConfig(interactive=True)
        QuerySession(
            kb, world, config, lambda a: CertaintyInterval(0.6, 1.0)
        ).prove(Atom("verdict"))
        calls = []
        again = QuerySession(kb, world, config, lambda a: calls.append(a))
        result = again.prove(Atom("verdict"))
        assert calls == []
        assert result.interval.lower == pytest.approx(0.48, abs=1e-12)


GOLDEN_EXPLAIN = """\
aggregation (g) = [0.8380, 1.0000] under T2
  rule-instance ruleA: premise [0.7000, 1.0000] -> [0.5950, 1.0000]
    fact (a) = [0.7000, 1.0000] via s
  rule-instance ruleB: premise [0.8000, 1.0000] -> [0.6000, 1.0000]
    fact (b) = [0.8000, 1.0000] via s"""


class TestExplain:
    def test_golden_two_rule_tree(self):
        kb = KnowledgeBase()
        kb.rules["ruleA"] = _rule("ruleA", ["a"], "g", s=0.85)
        kb.rules["ruleB"] = _rule("ruleB", ["b"], "g", s=0.75)
        world = World("w")
        _fact(world, "a", 0.7)
        _fact(world, "b", 0.8)
        assert explain(prove(kb, world, Atom("g"))) == GOLDEN_EXPLAIN

    def test_notes_follow_the_tree(self):
        result = prove(KnowledgeBase(), World("w"), Atom("mystery"))
        text = explain(result)
        assert text.splitlines()[0].startswith("fact (mystery)")
        assert text.splitlines()[-1].startswith("note: no support")

    def test_result_dict_is_json_ready(self):
        kb = KnowledgeBase()
        kb.rules["ruleA"] = _rule("ruleA", ["a"], "g", s=0.85)
        world = World("w")
        _fact(world, "a", 0.7)
        payload = result_to_dict(prove(kb, world, Atom("g")))
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["goal"] == "(g)"
        assert round_tripped["interval"] == [0.595, 1.0]
        proof = round_tripped["proof"]
        assert proof[0]["kind"] == "aggregation"
        assert proof[proof[0]["children"][0]]["kind"] == "rule-instance"


class TestDemoScenario:
    def test_headline_answer(self, demo):
        kb, world = demo
        result = prove(kb, world, Atom("anti-trust-success", ("?raider", "?target")))
        assert result.goal == Atom("anti-trust-success", ("Mobil", "Marathon"))
        assert result.interval.lower == pytest.approx(0.9381851662975624, abs=1e-9)
        assert result.interval.upper == pytest.approx(0.98, abs=1e-12)
        assert str(result.interval) == "[0.9382, 0.9800]"

    def test_precedent_path_in_proof(self, demo):
        kb, world = demo
        result = prove(kb, world, Atom("anti-trust-success", ("?raider", "?target")))
        assert _provenances(result.proof, "precedent") == ["defense/anti-trust"]
        cases = _provenances(result.proof, "case-instance")
        assert set(cases) == {"brown-shoe", "mobil-marathon", "pabst"}

    def test_screened_rule_absent_from_proof(self, demo):
        kb, world = demo
        result = prove(kb, world, Atom("anti-trust-success", ("?raider", "?target")))
        used = _provenances(result.proof, "rule-instance")
        assert "political-lobby-defense" in used
        assert "foreign-competition-rebuttal" not in used

    def test_forward_agrees_with_backward(self, demo):
        kb, world = demo
        table = forward_saturate(kb, world.copy())
        assert len(table) >= 4
        for goal, interval in table.items():
            assert prove(kb, world.copy(), goal).interval == interval


class TestForwardBackwardRandom:
    def test_agreement_on_generated_kbs(self):
        for seed in range(10):
            rng = random.Random(3000 + seed)
            kb, world, _ = weighted_kb(rng, n_rules=20)
            config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
            table = forward_saturate(kb, world.copy(), config)
            for goal, interval in table.items():
                fresh = prove(kb, world.copy(), goal, config)
                assert fresh.interval == interval, f"seed {seed}, goal {goal}"


def _deep_chain(depth):
    # a0 is a fact and each ai derives from a(i-1).  The rules are filed
    # top-down, so saturation starts at the deepest goal.
    kb = KnowledgeBase()
    for i in range(depth, 0, -1):
        kb.rules[f"r{i}"] = _rule(f"r{i}", [f"a{i - 1}"], f"a{i}", s=0.999)
    world = World("w")
    _fact(world, "a0", 0.9)
    return kb, world, Atom(f"a{depth}")


def _diamond_chain(depth):
    # The shape of perfbench's diamond_chain: l(i) and r(i) derive from
    # n(i-1), and n(i) joins them; a0 is the fact at the bottom.
    kb = KnowledgeBase()
    for i in range(depth, 0, -1):
        below = f"n{i - 1}" if i > 1 else "a0"
        kb.rules[f"l{i}"] = _rule(f"l{i}", [below], f"l{i}", s=0.99, family=T1)
        kb.rules[f"r{i}"] = _rule(f"r{i}", [below], f"r{i}", s=0.98, family=T3)
        kb.rules[f"j{i}"] = _rule(f"j{i}", [f"l{i}", f"r{i}"], f"n{i}", s=0.999)
    world = World("w")
    _fact(world, "a0", 0.9)
    return kb, world, Atom(f"n{depth}")


class TestDeepDerivations:
    @pytest.mark.parametrize("build, depth", [(_deep_chain, 1000), (_diamond_chain, 30)])
    def test_prove_saturate_and_revision_agree(self, build, depth):
        kb, world, top = build(depth)
        assert validate(kb).ok()
        table = forward_saturate(kb, world.copy())
        session = QuerySession(kb, world.copy())
        assert session.prove(top).interval == table[top]
        assert {goal: session.evaluate(goal) for goal in table} == table
        tracker = DependencyTracker(kb, world)
        tracker.query(top)
        assert top in tracker.on_update(Atom("a0"), CertaintyInterval(0.95, 1.0), "s2")
        tracker.recompute()
        assert tracker.records[top].cached == prove(kb, world.copy(), top).interval

    def test_explain_walks_a_deep_chain(self):
        kb, world, top = _deep_chain(1000)
        lines = explain(prove(kb, world, top)).splitlines()
        assert len(lines) == 2 * 1000 + 1
        assert lines[0].startswith("aggregation (a1000) = ")
        assert lines[-1] == "  " * 2000 + "fact (a0) = [0.9000, 1.0000] via s"

    def test_result_dict_serialises_a_deep_chain(self):
        kb, world, top = _deep_chain(1000)
        payload = json.loads(json.dumps(result_to_dict(prove(kb, world, top))))
        proof = payload["proof"]
        assert len(proof) == 2 * 1000 + 1
        assert proof[0]["goal"] == "(a1000)"
        assert proof[-1] == {
            "kind": "fact", "goal": "(a0)", "result": [0.9, 1.0], "provenance": "s"
        }


def _explain_tree_walk(result):
    """Reference: format every node of the proof walked as a tree."""
    lines = []
    stack = [(result.proof, "")]
    while stack:
        node, pad = stack.pop()
        iv = str(node.result)
        if node.kind == "fact":
            lines.append(f"{pad}fact {node.goal} = {iv} via {node.provenance}")
        elif node.kind == "rule-instance":
            lines.append(
                f"{pad}rule-instance {node.provenance}: "
                f"premise {node.premise_interval} -> {iv}"
            )
        elif node.kind == "case-instance":
            lines.append(
                f"{pad}case-instance {node.provenance}: "
                f"match {node.premise_interval} -> {iv}"
            )
        elif node.kind == "precedent":
            lines.append(f"{pad}precedent {node.provenance} = {iv}")
        else:
            lines.append(f"{pad}aggregation {node.goal} = {iv} under {node.provenance}")
        for child in reversed(node.children):
            stack.append((child, pad + "  "))
    for note in result.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _nested_proof_dict(node):
    """Reference: the proof as nested dicts, one per node of the tree walk."""
    out = {
        "kind": node.kind,
        "goal": str(node.goal),
        "result": [node.result.lower, node.result.upper],
        "provenance": node.provenance,
    }
    if node.premise_interval is not None:
        out["premise"] = [node.premise_interval.lower, node.premise_interval.upper]
        out["detached"] = [node.result.lower, node.result.upper]
    if node.children:
        out["children"] = [_nested_proof_dict(c) for c in node.children]
    return out


def _expand(table, k=0):
    entry = dict(table[k])
    if "children" in entry:
        entry["children"] = [_expand(table, c) for c in entry["children"]]
    return entry


def _distinct_nodes(root):
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


SHARED_PROOFS = ["demo"] + [(depth, seed) for depth in (8, 12) for seed in range(1, 6)]


@pytest.fixture(params=SHARED_PROOFS, ids=str)
def shared_proof(request):
    if request.param == "demo":
        kb = parse_kb(DATA.joinpath("demo.kb").read_text(), "demo.kb")
        world = parse_world(DATA.joinpath("m1.world").read_text(), "m1.world")
        goal = Atom("anti-trust-success", ("?raider", "?target"))
    else:
        depth, seed = request.param
        kb, world, goal = diamond_kb(random.Random(seed), depth)
    return prove(kb, world, goal)


class TestSharedProofs:
    def test_explain_matches_a_tree_walk(self, shared_proof):
        assert explain(shared_proof) == _explain_tree_walk(shared_proof)

    def test_table_has_one_entry_per_distinct_node_root_first(self, shared_proof):
        table = proof_to_dict(shared_proof.proof)
        assert len(table) == _distinct_nodes(shared_proof.proof)
        root = _nested_proof_dict(shared_proof.proof)
        assert table[0] == {**root, "children": table[0]["children"]}
        assert _expand(table) == root


# One generated KB (tests/generators.dsl_kb at seed 2571, rendered) whose
# three saturation notes came out in an order that followed the string
# hash seed while saturation ranked goals by predicate.
_NOTES_KB = """\
taxonomy alpha/zone-a;
taxonomy zone-a;

rule rule-0 tnorm T3 suff 0.08338783356357271 nec 0.072 {
  if (pred0-long-name Konst)
     (pred3 ?x ?x)
  then (pred1-x Other)
}

rule rule-1 path alpha/zone-a context (pred0-long-name) tnorm T2 suff 0.748 nec 0 {
  if (pred3 ?y Other)
  then (pred2.alt)
}

rule rule-2 path zone-a context (pred4_v2 Konst) tnorm T1 suff 0 nec 0 {
  if (pred2.alt)
     (pred3 ?x)
  then (pred4_v2 ?y Konst)
}

precedent (pred1-x) from zone-a tnorm T1;
precedent (pred2.alt) from alpha/zone-a tnorm T3;
"""

_NOTES_SCRIPT = """\
import json, sys
from possum.dsl import parse_kb
from possum.engine import QuerySession
from possum.knowledge import World
session = QuerySession(parse_kb(sys.stdin.read()), World("w", roles={"?y": "B"}))
session.saturate()
print(json.dumps(session.diagnostics))
"""


class TestSaturationOrder:
    def test_notes_follow_the_kb_under_any_hash_seed(self):
        src = str(Path(possum.__file__).resolve().parents[1])
        runs = []
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", _NOTES_SCRIPT],
                input=_NOTES_KB,
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            runs.append(json.loads(done.stdout))
        assert runs == [[
            "rule rule-0 inactive: role ?x is unbound in (pred3 ?x ?x)",
            "no precedent support for (pred1-x Other) under zone-a",
            "no precedent support for (pred2.alt) under alpha/zone-a",
        ]] * 3
