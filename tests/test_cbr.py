"""Case library, retrieval, precedent combination, and the similarity of
cases as ``prove`` fires them."""

import random

import pytest

from possum.calculus import (
    CertaintyInterval,
    ConflictPolicy,
    TNormFamily,
    TOTAL_IGNORANCE,
    antecedent_eval,
    detach,
    tnorm,
    transitivity_bound,
)
from possum.cbr import case_similarity, retrieve
from possum.engine import QueryConfig, QuerySession, context_passes, forward_saturate, prove
from possum.errors import DomainError, UnknownPathError
from possum.knowledge import (
    Atom,
    CaseLibrary,
    CaseTemplate,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    World,
    assert_evidence,
    format_path,
    parse_path,
)
from conftest import ForgetfulGoals
from generators import weighted_kb

T2 = TNormFamily.T2
T3 = TNormFamily.T3


def _template(ident, path, body, head, context=(), roles=(), s=0.9, n=0.0, family=T2):
    return CaseTemplate(
        ident,
        path,
        roles,
        tuple(Atom(c) for c in context),
        tuple(Atom(b) for b in body),
        Atom(head),
        s,
        n,
        family,
    )


def _library():
    lib = CaseLibrary()
    lib.declare_path(("deals", "merger"))
    lib.declare_path(("deals", "spinoff"))
    lib.add(_template("m1", ("deals", "merger"), ["a"], "q"))
    lib.add(_template("m2", ("deals", "merger"), ["b"], "q"))
    lib.add(_template("s1", ("deals", "spinoff"), ["c"], "q"))
    return lib


class TestPaths:
    def test_parse_and_format(self):
        assert parse_path("deals/anti-trust") == ("deals", "anti-trust")
        assert format_path(("deals", "anti-trust")) == "deals/anti-trust"

    def test_prefix_of_declared_counts_as_declared(self):
        lib = _library()
        assert lib.has_path(("deals",))
        assert lib.has_path(())
        assert not lib.has_path(("deals", "merger", "hostile"))
        assert not lib.has_path(("elsewhere",))

    def test_templates_at_ancestor_is_superset(self):
        lib = _library()
        at_root = {t.identifier for t in lib.templates_at(())}
        at_deals = {t.identifier for t in lib.templates_at(("deals",))}
        at_merger = {t.identifier for t in lib.templates_at(("deals", "merger"))}
        assert at_merger <= at_deals <= at_root
        assert at_merger == {"m1", "m2"}
        assert at_deals == {"m1", "m2", "s1"}

    def test_templates_at_sorted_deterministically(self):
        lib = _library()
        idents = [t.identifier for t in lib.templates_at(())]
        assert idents == sorted(idents, key=lambda i: (lib.templates[i].path, i))


class TestRetrieve:
    def test_undeclared_path_is_an_error(self):
        with pytest.raises(UnknownPathError):
            retrieve(_library(), ("nowhere",), World("w"))

    def test_string_path_accepted(self):
        world = World("w")
        found = retrieve(_library(), "deals/merger", world)
        assert {t.identifier for t in found} == {"m1", "m2"}

    def test_context_screening_drops_cold_templates(self):
        lib = CaseLibrary()
        lib.declare_path(("p",))
        lib.add(_template("warm", ("p",), ["a"], "q", context=["sunny"]))
        lib.add(_template("cold", ("p",), ["a"], "q", context=["frozen"]))
        lib.add(_template("plain", ("p",), ["a"], "q"))
        world = World("w")
        assert_evidence(world, Atom("sunny"), CertaintyInterval(0.8, 1.0), "s")
        assert_evidence(world, Atom("frozen"), CertaintyInterval(0.2, 1.0), "s")
        found = {t.identifier for t in retrieve(lib, ("p",), world)}
        assert found == {"warm", "plain"}

    def test_screening_threshold_is_configurable(self):
        lib = CaseLibrary()
        lib.declare_path(("p",))
        lib.add(_template("warm", ("p",), ["a"], "q", context=["sunny"]))
        world = World("w")
        assert_evidence(world, Atom("sunny"), CertaintyInterval(0.4, 1.0), "s")
        assert retrieve(lib, ("p",), world) == []
        low_bar = QueryConfig(context_threshold=0.3)
        assert len(retrieve(lib, ("p",), world, low_bar)) == 1

    def test_screening_conjunction_is_min(self):
        # Two contexts at 0.6 each: min is 0.6, still over the bar; a
        # multiplicative reading would give 0.36 and wrongly screen out.
        lib = CaseLibrary()
        lib.declare_path(("p",))
        lib.add(_template("both", ("p",), ["a"], "q", context=["u", "v"]))
        world = World("w")
        assert_evidence(world, Atom("u"), CertaintyInterval(0.6, 1.0), "s")
        assert_evidence(world, Atom("v"), CertaintyInterval(0.6, 1.0), "s")
        assert len(retrieve(lib, ("p",), world)) == 1

    def test_unbindable_context_screens_out(self):
        lib = CaseLibrary()
        lib.declare_path(("p",))
        lib.add(_template("open", ("p",), ["a"], "q", context=[]))
        lib.templates["open"] = CaseTemplate(
            "open", ("p",), ("?who",), (Atom("ctx", ("?who",)),),
            (Atom("a"),), Atom("q"), 0.9, 0.0, T2,
        )
        assert retrieve(lib, ("p",), World("w")) == []


def _kb_with_link(family=T2):
    kb = KnowledgeBase()
    kb.case_library.declare_path(("deals", "merger"))
    kb.case_library.add(_template("m1", ("deals", "merger"), ["a"], "q", s=0.9))
    kb.case_library.add(_template("m2", ("deals", "merger"), ["b"], "q", s=0.8))
    kb.case_library.add(_template("other", ("deals", "merger"), ["a"], "r", s=0.9))
    kb.precedent_links["q"] = PrecedentLink("q", ("deals",), family)
    return kb


def _precedent(result):
    """The precedent node of a proof whose goal has no other support."""
    (node,) = [c for c in result.proof.children if c.kind == "precedent"]
    return node


def _ab_world():
    world = World("w")
    assert_evidence(world, Atom("a"), CertaintyInterval(0.7, 1.0), "s")
    assert_evidence(world, Atom("b"), CertaintyInterval(0.5, 1.0), "s")
    return world


class TestPrecedentSupport:
    def test_aggregates_only_goal_concluding_templates(self):
        support = _precedent(prove(_kb_with_link(), _ab_world(), Atom("q")))
        assert [c.provenance for c in support.children] == ["m1", "m2"]
        # Relevances 0.63 and 0.40 under the T2 conorm: 1-(1-.63)(1-.4)
        assert support.result.lower == pytest.approx(0.778, abs=1e-9)
        assert support.result.upper == 1.0

    def test_zero_matches_yield_ignorance_and_diagnostic(self):
        kb = _kb_with_link()
        # No template concludes the goal; the link itself is required.
        kb.precedent_links["z-unknown"] = PrecedentLink("z-unknown", ("deals",), T2)
        result = prove(kb, World("w"), Atom("z-unknown"))
        support = _precedent(result)
        assert result.interval == support.result == TOTAL_IGNORANCE
        assert support.children == ()
        assert "no precedent support for (z-unknown) under deals" in result.diagnostics

    def test_notes_are_not_repeated(self):
        # left and right both read (c); with a goal table that never
        # answers, (c) is derived twice and its precedent notes come up
        # twice.
        kb = KnowledgeBase()
        kb.case_library.declare_path(("p",))
        premise = Atom("a", ("?x",))
        kb.case_library.add(
            CaseTemplate("k", ("p",), ("?x",), (), (premise,), Atom("c"), 0.9, 0.0, T2)
        )
        kb.precedent_links["c"] = PrecedentLink("c", ("p",), T2)
        for ident, body, head in (
            ("l", ["c"], "left"),
            ("r", ["c"], "right"),
            ("t", ["left", "right"], "top"),
        ):
            body = tuple(Atom(b) for b in body)
            kb.rules[ident] = Rule(ident, (), body, Atom(head), 0.9, 0.0, T2)
        session = QuerySession(kb, World("w"), goals=ForgetfulGoals())
        notes = session.prove(Atom("top")).diagnostics
        assert notes.count("case k inactive: role ?x is unbound in (a ?x)") == 1
        assert notes.count("no precedent support for (c) under p") == 1

    def test_link_family_drives_aggregation(self):
        loose = _precedent(prove(_kb_with_link(T3), _ab_world(), Atom("q")))
        tight = _precedent(prove(_kb_with_link(TNormFamily.T1), _ab_world(), Atom("q")))
        assert loose.result.lower == pytest.approx(0.63, abs=1e-9)
        assert tight.result.lower == pytest.approx(min(1.0, 0.63 + 0.40), abs=1e-9)

    def test_lenient_policy_reaches_cbr_aggregation(self):
        kb = KnowledgeBase()
        kb.case_library.declare_path(("p",))
        kb.case_library.add(_template("c1", ("p",), ["a"], "q", s=1.0, n=1.0))
        kb.case_library.add(_template("c2", ("p",), ["b"], "q", s=1.0, n=1.0))
        kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(1.0, 1.0), "s")
        assert_evidence(world, Atom("b"), CertaintyInterval(0.0, 0.0), "s")
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        result = prove(kb, world, Atom("q"), config)
        assert _precedent(result).result == TOTAL_IGNORANCE
        assert any(n.startswith("support paths for precedent support for (q) conflict")
                   for n in result.diagnostics)


def _case_kb(*templates):
    """A KB whose one precedent link, on ``q``, instantiates ``templates``."""
    kb = KnowledgeBase()
    kb.case_library.declare_path(("p",))
    for template in templates:
        kb.case_library.add(template)
    kb.precedent_links["q"] = PrecedentLink("q", ("p",), T2)
    return kb


def _fired(kb, world, goal=Atom("q")):
    """The case-instance nodes ``prove`` fires for a goal only precedent supports."""
    return _precedent(prove(kb, world, goal)).children


class TestMatchCase:
    """A case matches the world by firing in ``prove``, exactly as a rule does."""

    def test_match_equals_rule_arithmetic(self):
        # A template and a rule with the same strengths must grade a
        # world identically; only provenance differs.
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.7, 0.9), "s")
        assert_evidence(world, Atom("b"), CertaintyInterval(0.8, 1.0), "s")
        template = _template("t", ("p",), ["a", "b"], "q", s=0.85, n=0.2)
        kb = _case_kb(template)
        kb.rules["r"] = Rule("r", (), template.antecedents, Atom("r"), 0.85, 0.2, T2)
        (case,) = _fired(kb, world)
        premise = antecedent_eval(
            T2, [CertaintyInterval(0.7, 0.9), CertaintyInterval(0.8, 1.0)]
        )
        assert case.kind == "case-instance"
        assert case.premise_interval == premise
        assert case.result == detach(T2, 0.85, 0.2, premise)
        (rule,) = prove(kb, world, Atom("r")).proof.children
        assert rule.kind == "rule-instance"
        assert (rule.premise_interval, rule.result) == (case.premise_interval, case.result)

    def test_roles_instantiated_from_world(self):
        world = World("w", roles={"?x": "Mobil"})
        assert_evidence(world, Atom("a", ("Mobil",)), CertaintyInterval(0.6, 1.0), "s")
        template = CaseTemplate(
            "t", ("p",), ("?x",), (), (Atom("a", ("?x",)),), Atom("q", ("?x",)),
            0.9, 0.0, T2,
        )
        (case,) = _fired(_case_kb(template), world, Atom("q", ("?x",)))
        assert [c.goal for c in case.children] == [Atom("a", ("Mobil",))]
        assert case.premise_interval == CertaintyInterval(0.6, 1.0)


class TestSimilarity:
    def test_identical_profiles_score_one(self):
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.7, 0.9), "s")
        (case,) = _fired(_case_kb(_template("t", ("p",), ["a"], "q")), world)
        assert case_similarity(case, case) == 1.0

    def test_known_gap(self):
        w1 = World("w1")
        assert_evidence(w1, Atom("a"), CertaintyInterval(0.8, 1.0), "s")
        w2 = World("w2")
        assert_evidence(w2, Atom("a"), CertaintyInterval(0.2, 0.4), "s")
        kb = _case_kb(_template("t", ("p",), ["a"], "q"))
        (x,), (y,) = _fired(kb, w1), _fired(kb, w2)
        sim = case_similarity(x, y)
        assert sim == pytest.approx(1.0 - abs(0.9 - 0.3), abs=1e-12)

    def test_gaps_add_left_to_right(self):
        # Gaps 0.1, 0.2 and 0.3 added in a plain loop give 0.6000000000000001;
        # ``sum`` on CPython 3.12 and later compensates and gives 0.6.
        kb = _case_kb(_template("t", ("p",), ["a", "b", "c"], "q"))
        w1 = World("w1")
        w2 = World("w2")
        for name, value in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            assert_evidence(w1, Atom(name), CertaintyInterval(value, value), "s")
            assert_evidence(w2, Atom(name), CertaintyInterval(0.0, 0.0), "s")
        (x,), (y,) = _fired(kb, w1), _fired(kb, w2)
        assert case_similarity(x, y) == 0.7999999999999999

    def test_unequal_profiles_rejected(self):
        kb = _case_kb(
            _template("t1", ("p",), ["a"], "q"), _template("t2", ("p",), ["a", "b"], "q")
        )
        one, two = _fired(kb, World("w"))
        with pytest.raises(DomainError):
            case_similarity(one, two)

    def test_only_fired_cases_compared(self):
        world = World("w")
        assert_evidence(world, Atom("a"), CertaintyInterval(0.7, 0.9), "s")
        result = prove(_case_kb(_template("t", ("p",), ["a"], "q")), world, Atom("q"))
        precedent = _precedent(result)
        (case,) = precedent.children
        for other in (precedent, result.proof, case.children[0]):
            with pytest.raises(DomainError, match="is not a fired case"):
                case_similarity(case, other)
            with pytest.raises(DomainError, match="is not a fired case"):
                case_similarity(other, case)

    def test_dissimilarity_obeys_triangle_inequality(self):
        # Cases fired from three templates of three premises each, under
        # one link, in twelve seeded worlds: every triple mixes templates.
        rng = random.Random(7)
        kb = _case_kb(
            _template("t1", ("p",), ["a", "b", "c"], "q"),
            _template("t2", ("p",), ["c", "d", "e"], "q"),
            _template("t3", ("p",), ["f", "a", "d"], "q"),
        )
        cases = []
        for i in range(12):
            world = World(f"w{i}")
            for name in "abcdef":
                lo = rng.uniform(0.0, 1.0)
                assert_evidence(world, Atom(name), CertaintyInterval(lo, rng.uniform(lo, 1.0)), "s")
            cases.extend(_fired(kb, world))
        assert [case.provenance for case in cases] == ["t1", "t2", "t3"] * 12
        for x in cases:
            for y in cases:
                for z in cases:
                    sxz, sxy, syz = (case_similarity(*pair) for pair in ((x, z), (x, y), (y, z)))
                    assert 1.0 - sxz <= (1.0 - sxy) + (1.0 - syz) + 1e-12
                    # The paper's form: similarity is T1-transitive.
                    assert sxz >= transitivity_bound(TNormFamily.T1, sxy, syz) - 1e-12

    def test_similarity_is_the_complement_of_the_mean_midpoint_gap(self):
        # ``similarity_from_distance`` on what the engine fired: two
        # templates under one link, each in six seeded worlds.
        rng = random.Random(11)
        kb = _case_kb(
            _template("t1", ("p",), ["a", "b", "c"], "q"),
            _template("t2", ("p",), ["c", "d", "e"], "q"),
        )
        cases = []
        for i in range(6):
            world = World(f"w{i}")
            for name in "abcde":
                lo = rng.uniform(0.0, 1.0)
                assert_evidence(world, Atom(name), CertaintyInterval(lo, rng.uniform(lo, 1.0)), "s")
            cases.extend(_fired(kb, world))
        assert [case.provenance for case in cases[:2]] == ["t1", "t2"]
        for x in cases:
            for y in cases:
                gap = 0.0
                for p, q in zip(x.children, y.children):
                    gap += abs(p.result.midpoint() - q.result.midpoint())
                assert case_similarity(x, y) == 1.0 - gap / len(x.children)


class TestCasesAreRules:
    """The abstract's central claim: cases join "without altering the
    inference engine of RBR".  A precedent link whose one linked template
    passes the gate, under the template's own family, is that template
    as one more rule."""

    def test_the_one_linked_case_as_a_rule_moves_no_interval(self):
        config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
        checked = 0
        for seed in range(400):
            kb, world, _ = weighted_kb(random.Random(seed), 60)
            if len(kb.precedent_links) != 1:
                continue
            (predicate, link), = kb.precedent_links.items()
            linked = kb.linked_templates(link)
            if len(linked) != 1 or not context_passes(linked[0].context, world, config):
                continue
            case = linked[0]
            kb.precedent_links[predicate] = PrecedentLink(predicate, link.path, case.family)
            as_case = forward_saturate(kb, world.copy(), config)
            del kb.case_library.templates[case.identifier]
            del kb.precedent_links[predicate]
            kb.rules[case.identifier] = Rule(
                case.identifier, case.context, case.antecedents, case.consequent,
                case.sufficiency, case.necessity, case.family,
            )
            as_rule = forward_saturate(kb, world, config)
            assert as_rule.keys() == as_case.keys(), f"seed {seed}"
            for atom, interval in as_case.items():
                hexes = (interval.lower.hex(), interval.upper.hex())
                assert (as_rule[atom].lower.hex(), as_rule[atom].upper.hex()) == hexes, (seed, atom)
            checked += 1
        # The generator gives 94 such KBs in these seeds.
        assert checked == 94

    def test_several_linked_cases_as_rules_move_no_interval_under_t3(self):
        # The generator gives 205 such KBs in these seeds.
        assert _several_cases_as_rules(range(300)) == 205

    @pytest.mark.slow
    def test_several_linked_cases_as_rules_move_no_interval_under_t3_at_scale(self):
        assert _several_cases_as_rules(range(300, 3000)) == 1795

    def test_where_several_cases_stop_being_rules(self):
        # The generator's own mixed families: the link's family is not the
        # templates', and T1's sums are not associative.
        kb, world, _ = weighted_kb(random.Random(1), 60)
        assert _moved_intervals(kb, world) == [Atom("p12")]
        # Every linked template screened out: the link adds a path at total
        # ignorance, which T3 aggregates through 1 - min(1 - x, 1), one
        # rounding away from a lone rule path's own interval; the
        # conclusions that read it move with it.
        kb, world, _ = weighted_kb(random.Random(123), 60)
        _all_t3(kb)
        (link,) = kb.precedent_links.values()
        assert not any(context_passes(t.context, world, CONFIG) for t in kb.linked_templates(link))
        assert _moved_intervals(kb, world) == [Atom("p18"), Atom("p24"), Atom("p40")]


CONFIG = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)


def _all_t3(kb):
    """Every rule, template and link of ``kb`` under T3."""
    for ident, r in kb.rules.items():
        kb.rules[ident] = Rule(
            ident, r.context, r.antecedents, r.consequent, r.sufficiency, r.necessity, T3,
            r.rule_class,
        )
    templates = kb.case_library.templates
    for ident, t in templates.items():
        templates[ident] = CaseTemplate(
            ident, t.path, t.roles, t.context, t.antecedents, t.consequent, t.sufficiency,
            t.necessity, T3,
        )
    for predicate, link in kb.precedent_links.items():
        kb.precedent_links[predicate] = PrecedentLink(predicate, link.path, T3)


def _moved_intervals(kb, world):
    """The atoms whose saturated interval moves, as ``float.hex``, when
    every template the one link instantiates becomes a rule and the link
    goes."""
    (predicate, link), = kb.precedent_links.items()
    as_case = forward_saturate(kb, world.copy(), CONFIG)
    for case in kb.linked_templates(link):
        del kb.case_library.templates[case.identifier]
        kb.rules[case.identifier] = Rule(
            case.identifier, case.context, case.antecedents, case.consequent,
            case.sufficiency, case.necessity, case.family,
        )
    del kb.precedent_links[predicate]
    as_rule = forward_saturate(kb, world, CONFIG)
    assert as_rule.keys() == as_case.keys()
    return [
        atom for atom, iv in as_case.items()
        if (iv.lower.hex(), iv.upper.hex())
        != (as_rule[atom].lower.hex(), as_rule[atom].upper.hex())
    ]


def _several_cases_as_rules(seeds) -> int:
    """Check the KBs among ``seeds`` whose one link instantiates two or
    three templates, one of them past the gate, all under T3: T3's max
    and min are associative, so the link's aggregate of the cases is one
    more aggregate over the paths.  Returns how many were checked."""
    checked = 0
    for seed in seeds:
        kb, world, _ = weighted_kb(random.Random(seed), 60)
        if len(kb.precedent_links) != 1:
            continue
        (link,) = kb.precedent_links.values()
        linked = kb.linked_templates(link)
        if len(linked) < 2 or not any(context_passes(t.context, world, CONFIG) for t in linked):
            continue
        _all_t3(kb)
        assert _moved_intervals(kb, world) == [], f"seed {seed}"
        checked += 1
    return checked
