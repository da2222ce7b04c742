"""Atoms, worlds, evidence bookkeeping, and static KB checks."""

import math
import random
from graphlib import CycleError, TopologicalSorter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from possum.calculus import (
    CertaintyInterval,
    ConflictPolicy,
    SourceConflictError,
    TNormFamily,
    TOTAL_IGNORANCE,
)
from possum.dsl import parse_kb, render_kb
from possum.engine import forward_saturate
from possum.errors import DerivationCycleError, DomainError, ParseError, UnboundRoleError
from possum.knowledge import (
    Atom,
    CaseTemplate,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    World,
    assert_evidence,
    lookup,
    predicate_dependencies,
    retract_evidence,
    substitute,
    validate,
)

T2 = TNormFamily.T2


class TestAtom:
    def test_str_form(self):
        assert str(Atom("owns", ("Mobil", "Marathon"))) == "(owns Mobil Marathon)"
        assert str(Atom("raining")) == "(raining)"

    def test_ground_and_variables(self):
        open_atom = Atom("owns", ("?x", "Marathon"))
        assert not open_atom.is_ground()
        assert open_atom.variables() == frozenset({"?x"})
        assert Atom("owns", ("A", "B")).is_ground()

    def test_atoms_hash_by_value(self):
        assert Atom("p", ("a",)) == Atom("p", ("a",))
        assert len({Atom("p", ("a",)), Atom("p", ("a",))}) == 1

    def test_atom_is_a_value_but_not_a_tuple(self):
        # Atom is a NamedTuple, so it hashes in C as the tuple of its
        # fields, but its own __eq__ and __ne__ keep it from equalling
        # a plain tuple with the same fields.
        atom = Atom("p", ("a",))
        assert hash(atom) == hash(("p", ("a",)))
        assert atom != ("p", ("a",))
        assert Atom("p") == Atom("p", ())
        with pytest.raises(AttributeError):
            atom.predicate = "q"

    def test_substitute(self):
        atom = substitute(Atom("owns", ("?x", "?y")), {"?x": "A", "?y": "B"})
        assert atom == Atom("owns", ("A", "B"))

    def test_substitute_missing_role(self):
        with pytest.raises(UnboundRoleError) as exc:
            substitute(Atom("owns", ("?x", "?y")), {"?x": "A"})
        assert exc.value.variable == "?y"

    def test_substitute_leaves_constants_alone(self):
        atom = substitute(Atom("p", ("Konst",)), {})
        assert atom == Atom("p", ("Konst",))


class TestEvidence:
    def test_assert_then_lookup(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.6, 0.9), "lab")
        assert lookup(world, a) == CertaintyInterval(0.6, 0.9)

    def test_unknown_atom_is_total_ignorance(self):
        assert lookup(World("w"), Atom("p")) == TOTAL_IGNORANCE

    def test_two_sources_reconcile_by_intersection(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.2, 0.9), "one")
        assert_evidence(world, a, CertaintyInterval(0.5, 0.95), "two")
        assert lookup(world, a) == CertaintyInterval(0.5, 0.9)

    def test_non_ground_assert_rejected(self):
        with pytest.raises(DomainError):
            assert_evidence(World("w"), Atom("p", ("?x",)), TOTAL_IGNORANCE, "s")

    def test_epoch_advances_only_on_effective_change(self):
        world = World("w")
        a = Atom("p")
        assert assert_evidence(world, a, CertaintyInterval(0.5, 1.0), "one")
        e1 = world.epoch
        # Second source inside the first: effective interval unchanged.
        assert not assert_evidence(world, a, CertaintyInterval(0.2, 1.0), "two")
        assert world.epoch == e1
        assert assert_evidence(world, a, CertaintyInterval(0.7, 1.0), "three")
        assert world.epoch == e1 + 1

    def test_edits_count_every_change_to_the_evidence(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.5, 1.0), "one")
        assert (world.epoch, world.edits) == (1, 1)
        # A new source inside the interval moves no epoch, but it is an edit.
        assert_evidence(world, a, CertaintyInterval(0.2, 1.0), "two")
        assert (world.epoch, world.edits) == (1, 2)
        # The same interval from the same source again changes nothing.
        assert_evidence(world, a, CertaintyInterval(0.2, 1.0), "two")
        assert (world.epoch, world.edits) == (1, 2)
        retract_evidence(world, a, "two")
        assert (world.epoch, world.edits) == (1, 3)
        assert world.copy().edits == 3
        assert World("w") == World("w", edits=5)

    def test_change_log_keeps_each_atoms_last_edit_and_last_move(self):
        world = World("w")
        p, q = Atom("p"), Atom("q")
        assert_evidence(world, p, CertaintyInterval(0.5, 1.0), "s1")
        assert_evidence(world, q, CertaintyInterval(0.5, 1.0), "s1")
        assert_evidence(world, p, CertaintyInterval(0.2, 1.0), "s2")  # moves nothing
        assert list(world.log.items()) == [(q, (2, 2)), (p, (3, 1))]
        retract_evidence(world, q, "s1")  # the fact goes
        assert list(world.log.items()) == [(p, (3, 1)), (q, (4, 4))]
        retract_evidence(world, p, "s1")  # s2's interval takes over
        assert_evidence(world, p, CertaintyInterval(0.2, 1.0), "s2")  # no edit
        assert list(world.log.items()) == [(q, (4, 4)), (p, (5, 5))]
        assert world.edits == 5

    def test_change_log_holds_one_entry_per_atom(self):
        rng = random.Random(11)
        world = World("w")
        atoms = [Atom("p", (str(i),)) for i in range(10)]
        for step in range(1000):
            # Each interval is new, so each assert is one edit.
            interval = CertaintyInterval(step / 2000, 1.0)
            assert_evidence(world, rng.choice(atoms), interval, rng.choice(["a", "b"]))
        assert world.edits == 1000
        assert sorted(world.log) == sorted(atoms)
        edits = [edit for edit, _ in world.log.values()]
        assert edits == sorted(edits) and edits[-1] == 1000
        assert all(0 < moved <= edit for edit, moved in world.log.values())

    def test_copy_carries_the_change_log_and_equality_ignores_it(self):
        world = World("w")
        assert_evidence(world, Atom("p"), CertaintyInterval(0.5, 1.0), "s1")
        twin = world.copy()
        assert twin.log == world.log == {Atom("p"): (1, 1)}
        assert_evidence(twin, Atom("q"), CertaintyInterval(0.5, 1.0), "s1")
        assert Atom("q") not in world.log
        assert World("w") == World("w", log={Atom("p"): (1, 1)})
        assert repr(World("w")) == repr(World("w", edits=1, log={Atom("p"): (1, 1)}))

    def test_strict_source_conflict_leaves_world_untouched(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.8, 0.9), "one")
        before = dict(world.facts[a].evidence)
        with pytest.raises(SourceConflictError):
            assert_evidence(world, a, CertaintyInterval(0.0, 0.1), "two")
        assert world.facts[a].evidence == before
        assert lookup(world, a) == CertaintyInterval(0.8, 0.9)

    def test_lenient_source_conflict_records_diagnostic(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.8, 0.9), "one")
        assert_evidence(
            world, a, CertaintyInterval(0.0, 0.1), "two", ConflictPolicy.LENIENT
        )
        assert lookup(world, a) == TOTAL_IGNORANCE
        assert any("conflict" in d for d in world.diagnostics)

    # The atom itself is the subject consensus formats, so the message
    # prints its text form.
    CONFLICT = (
        "sources for (p a) conflict (one, two): "
        "intervals intersect nowhere (max lower 0.8000, min upper 0.1000)"
    )

    def test_lenient_assert_conflict_message(self):
        world = World("w")
        a = Atom("p", ("a",))
        assert_evidence(world, a, CertaintyInterval(0.8, 0.9), "one")
        assert_evidence(world, a, CertaintyInterval(0.0, 0.1), "two", ConflictPolicy.LENIENT)
        assert world.diagnostics == [self.CONFLICT]

    def test_lenient_retract_conflict_message(self):
        world = World("w")
        a = Atom("p", ("a",))
        for source, interval in (
            ("one", CertaintyInterval(0.8, 0.9)),
            ("two", CertaintyInterval(0.0, 0.1)),
            ("three", CertaintyInterval(0.5, 0.6)),
        ):
            assert_evidence(world, a, interval, source, ConflictPolicy.LENIENT)
        assert world.diagnostics == [self.CONFLICT.replace("(one, two)", "(one, three, two)")]
        assert not retract_evidence(world, a, "three", ConflictPolicy.LENIENT)
        assert world.diagnostics == [self.CONFLICT]

    def test_reconciling_again_replaces_or_drops_the_note(self):
        # The world's notes are its current conflicts, not a log.
        world = World("w")
        a = Atom("p", ("a",))
        assert_evidence(world, a, CertaintyInterval(0.8, 0.9), "one")
        assert_evidence(world, a, CertaintyInterval(0.0, 0.1), "two", ConflictPolicy.LENIENT)
        twin = world.copy()
        assert assert_evidence(
            world, a, CertaintyInterval(0.85, 0.9), "two", ConflictPolicy.LENIENT
        )
        assert world.diagnostics == [] and world.conflicts == {}
        assert twin.diagnostics == [self.CONFLICT]
        assert retract_evidence(twin, a, "two", ConflictPolicy.LENIENT)
        assert twin.diagnostics == []
        assert_evidence(twin, a, CertaintyInterval(0.0, 0.1), "two", ConflictPolicy.LENIENT)
        assert retract_evidence(twin, a, "one") and retract_evidence(twin, a, "two")
        assert a not in twin.facts and twin.diagnostics == []

    def test_retract_single_source(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.2, 0.9), "one")
        assert_evidence(world, a, CertaintyInterval(0.5, 0.95), "two")
        assert retract_evidence(world, a, "two")
        assert lookup(world, a) == CertaintyInterval(0.2, 0.9)

    def test_retract_last_source_drops_fact(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.2, 0.9), "one")
        assert retract_evidence(world, a, "one")
        assert a not in world.facts
        assert lookup(world, a) == TOTAL_IGNORANCE

    def test_retract_unknown_source_is_noop(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.2, 0.9), "one")
        epoch = world.epoch
        assert not retract_evidence(world, a, "nobody")
        assert world.epoch == epoch

    def test_sources_listed_sorted(self):
        world = World("w")
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.2, 1.0), "zeta")
        assert_evidence(world, a, CertaintyInterval(0.3, 1.0), "alpha")
        assert world.facts[a].sources() == ["alpha", "zeta"]

    def test_copy_is_independent(self):
        world = World("w", roles={"?x": "A"})
        a = Atom("p")
        assert_evidence(world, a, CertaintyInterval(0.2, 1.0), "one")
        twin = world.copy()
        assert_evidence(twin, a, CertaintyInterval(0.6, 1.0), "two")
        twin.roles["?y"] = "B"
        assert lookup(world, a) == CertaintyInterval(0.2, 1.0)
        assert "?y" not in world.roles

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.6),
                st.sampled_from(["a", "b", "c", "d"]),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda e: e[1],
        )
    )
    def test_assert_order_does_not_matter(self, entries):
        # Distinct sources commute (re-asserting one source replaces it,
        # so repeats are excluded deliberately).
        a = Atom("p")
        forward = World("f")
        for lo, src in entries:
            assert_evidence(forward, a, CertaintyInterval(lo, 1.0), src)
        backward = World("b")
        for lo, src in reversed(entries):
            assert_evidence(backward, a, CertaintyInterval(lo, 1.0), src)
        assert forward.facts[a].evidence == backward.facts[a].evidence
        assert forward.facts[a].effective == backward.facts[a].effective


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


class TestKnowledgeBase:
    def test_rule_requires_antecedents(self):
        with pytest.raises(DomainError):
            Rule("r", (), (), Atom("q"), 0.9, 0.0, T2)

    def test_dependencies_ignore_context(self):
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a", "b"], "q", context=["gate"])
        deps = predicate_dependencies(kb)
        assert deps == {"q": {"a": None, "b": None}}

    def test_dependencies_include_linked_case_premises(self):
        kb = KnowledgeBase()
        kb.case_library.declare_path(("lib", "sub"))
        kb.case_library.add(
            CaseTemplate(
                "c1", ("lib", "sub"), (), (), (Atom("x"), Atom("y")), Atom("q"),
                0.9, 0.0, T2,
            )
        )
        kb.case_library.add(
            CaseTemplate(
                "c2", ("lib", "sub"), (), (), (Atom("z"),), Atom("other"),
                0.9, 0.0, T2,
            )
        )
        kb.precedent_links["q"] = PrecedentLink("q", ("lib",), T2)
        deps = predicate_dependencies(kb)
        # c2 concludes ``other``, which no link targets: the engine never
        # fires it, so it adds no entry.
        assert list(deps) == ["q"]
        assert list(deps["q"]) == ["x", "y"]

    def test_dependencies_follow_the_engine_reading_order(self):
        # Keys in the order of the first rule, then linked template, that
        # concludes each predicate; premises once each, in antecedent order.
        kb = KnowledgeBase()
        kb.case_library.declare_path(("lib",))
        kb.case_library.add(
            CaseTemplate("c", ("lib",), (), (), (Atom("z"), Atom("b")), Atom("top"), 0.9, 0.0, T2)
        )
        kb.precedent_links["top"] = PrecedentLink("top", ("lib",), T2)
        kb.rules["r1"] = _rule("r1", ["b", "a", "b"], "mid")
        kb.rules["r2"] = _rule("r2", ["mid"], "top")
        kb.rules["r3"] = _rule("r3", ["c", "a"], "mid")
        deps = predicate_dependencies(kb)
        assert [(head, list(premises)) for head, premises in deps.items()] == [
            ("mid", ["b", "a", "c"]),
            ("top", ["mid", "z", "b"]),
        ]

    def test_validate_clean_kb(self):
        kb = KnowledgeBase()
        kb.rules["r1"] = _rule("r1", ["a"], "q")
        report = validate(kb)
        assert report.ok()
        assert report.messages() == []

    def test_validate_flags_out_of_range_strength(self):
        kb = KnowledgeBase()
        kb.rules["r1"] = _rule("r1", ["a"], "q", s=1.4)
        report = validate(kb)
        assert not report.ok()
        assert any("r1" in m for m in report.messages())

    def test_validate_names_each_strength_outside_the_unit_interval(self):
        # Most KBs are checked in C at once; the findings must be those
        # of checking each value on its own.
        class Half(float):
            pass

        values = [
            0.0, 1.0, 0, 1, True, -0.0, Half(0.5), 0.25,
            1.5, -0.25, 2, math.nan, math.inf, -math.inf, Half(1.5), "0.5", None,
        ]
        for value in values:
            kb = KnowledgeBase()
            kb.rules["ok"] = _rule("ok", ["a"], "q")
            kb.rules["r"] = _rule("r", ["a"], "q", s=value)
            kb.case_library.declare_path(("lib",))
            kb.case_library.add(
                CaseTemplate("c", ("lib",), (), (), (Atom("a"),), Atom("q"), 0.5, value, T2)
            )
            expected = []
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                expected = [
                    f"rule r: sufficiency {value!r} outside [0, 1]",
                    f"case c: necessity {value!r} outside [0, 1]",
                ]
            assert validate(kb).range_errors == expected, value
        kb = KnowledgeBase()
        kb.rules["r"] = _rule("r", ["a"], "q", s=math.inf, n=-math.inf)
        assert validate(kb).range_errors == [
            "rule r: sufficiency inf outside [0, 1]", "rule r: necessity -inf outside [0, 1]"
        ]

    def test_validate_flags_rule_cycle(self):
        kb = KnowledgeBase()
        kb.rules["r1"] = _rule("r1", ["a", "q"], "p")
        kb.rules["r2"] = _rule("r2", ["p"], "q")
        report = validate(kb)
        assert not report.ok()
        assert report.cycles

    def test_validate_flags_cycle_through_precedent_link(self):
        kb = KnowledgeBase()
        kb.rules["r1"] = _rule("r1", ["q"], "p")
        kb.case_library.declare_path(("lib",))
        kb.case_library.add(
            CaseTemplate("c", ("lib",), (), (), (Atom("p"),), Atom("q"), 0.9, 0.0, T2)
        )
        kb.precedent_links["q"] = PrecedentLink("q", ("lib",), T2)
        report = validate(kb)
        assert not report.ok()
        assert report.cycles

    def test_validate_flags_undeclared_case_path(self):
        kb = KnowledgeBase()
        kb.case_library.paths.clear()
        kb.case_library.add(
            CaseTemplate("c", ("ghost",), (), (), (Atom("p"),), Atom("q"), 0.9, 0.0, T2)
        )
        report = validate(kb)
        assert not report.ok()
        assert report.path_errors

    def test_validate_flags_a_case_or_link_at_the_root(self):
        """``render_kb`` writes the root as ``/``, which no parser reads, so
        a KB that validates must file its cases and links under a path."""
        def case(path):
            return CaseTemplate("c", path, (), (), (Atom("p"),), Atom("q"), 0.9, 0.0, T2)

        at_root = KnowledgeBase()
        at_root.case_library.add(case(()))
        linked_at_root = KnowledgeBase()
        linked_at_root.case_library.declare_path(("lib",))
        linked_at_root.case_library.add(case(("lib",)))
        linked_at_root.precedent_links["q"] = PrecedentLink("q", (), T2)
        for kb, owner in ((at_root, "case c"), (linked_at_root, "precedent for q")):
            report = validate(kb)
            assert report.path_errors == [f"{owner}: path / is not in the taxonomy"]
            assert not report.ok()
            with pytest.raises(ParseError, match="to start a taxonomy path, found '/'"):
                parse_kb(render_kb(kb))

    def test_validate_flags_a_record_filed_in_the_wrong_table(self):
        """A case among the rules would fire as precedent support no link
        combines, and a rule in the library has no roles to check: each is
        reported by name and table."""
        case = CaseTemplate("c", ("lib",), (), (), (Atom("p"),), Atom("q"), 0.9, 0.0, T2)
        case_among_rules = KnowledgeBase(rules={"c": case})
        rule_in_library = KnowledgeBase()
        rule = Rule("r", (), (Atom("p"),), Atom("q"), 0.9, 0.0, T2, ("lib",))
        rule_in_library.case_library.templates["r"] = rule
        for kb in (case_among_rules, rule_in_library):
            kb.case_library.declare_path(("lib",))
        cases = [
            (case_among_rules, "case c: has roles but is in the rules"),
            (rule_in_library, "rule r: has no roles but is in the case library"),
        ]
        for kb, message in cases:
            report = validate(kb)
            assert report.role_errors == [message]
            assert not report.ok()

    def test_validate_flags_unbound_case_role(self):
        kb = KnowledgeBase()
        kb.case_library.declare_path(("lib",))
        kb.case_library.add(
            CaseTemplate(
                "c", ("lib",), ("?x",), (), (Atom("p", ("?x", "?y")),), Atom("q"),
                0.9, 0.0, T2,
            )
        )
        report = validate(kb)
        assert not report.ok()
        assert any("?y" in m for m in report.messages())

    def test_acyclic_random_kbs_validate(self):
        rng = random.Random(404)
        for _ in range(25):
            kb = KnowledgeBase()
            pool = ["a0", "a1", "a2"]
            for i in range(rng.randint(1, 12)):
                body = rng.sample(pool, k=rng.randint(1, min(3, len(pool))))
                head = f"g{i}"
                kb.rules[f"r{i}"] = _rule(f"r{i}", body, head)
                pool.append(head)
            report = validate(kb)
            assert report.ok()

    def test_validate_reports_the_cycle_saturate_raises(self):
        # Small random role-free, context-free KBs, some of whose
        # predicates are argued from precedent.  ``validate`` passes
        # exactly the KBs saturation answers, and reports the cycle it
        # raises.  graphlib is the reference for the verdict alone.
        rng = random.Random(1606)
        cyclic = 0
        for _ in range(3000):
            kb = KnowledgeBase()
            kb.case_library.declare_path(("lib",))
            pool = [f"p{i}" for i in range(rng.randint(2, 9))]
            for p in rng.sample(pool, k=rng.randint(0, 2)):
                kb.precedent_links[p] = PrecedentLink(p, ("lib",), T2)
            for i in range(rng.randint(1, 9)):
                body = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
                head = rng.choice(pool)
                if rng.random() < 0.25:
                    kb.case_library.add(
                        CaseTemplate(
                            f"c{i}", ("lib",), (), (), tuple(map(Atom, body)), Atom(head),
                            0.9, 0.0, T2,
                        )
                    )
                else:
                    kb.rules[f"r{i}"] = _rule(f"r{i}", body, head)
            report = validate(kb)
            try:
                list(TopologicalSorter(predicate_dependencies(kb)).static_order())
                acyclic = True
            except CycleError:
                acyclic = False
            try:
                forward_saturate(kb, World("w"))
                raised = None
            except DerivationCycleError as err:
                raised = str(err)
            assert report.ok() == acyclic == (raised is None)
            if raised is not None:
                cyclic += 1
                (cycle,) = report.cycles
                assert raised == "derivation cycle: " + " -> ".join(f"({p})" for p in cycle)
        assert 500 < cyclic < 2500
