"""Random knowledge-base builders shared across the suite.

Four flavours: crisp AND-circuits whose engine answers must equal a
boolean oracle, weighted layered KBs (optionally with contexts, facts
on derived atoms, and a small case library) for revision and
forward/backward comparisons, fully random KBs aimed at the renderer
round trip, and chains of diamonds whose proofs share sub-proofs.

The crisp builder keeps exactly one premise body per derived predicate
(duplicate bodies allowed): with full-strength rules, a goal holding
both a firing and a failing support path would be a genuine evidence
conflict, not a boolean disagreement, so arbitrary multi-rule goals are
out of scope for the boolean comparison.
"""

from __future__ import annotations

import random

from possum.calculus import CERTAIN, IMPOSSIBLE, CertaintyInterval, TNormFamily
from possum.knowledge import (
    Atom,
    CaseTemplate,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    World,
    assert_evidence,
)

FAMILIES = list(TNormFamily)


def boolean_kb(
    rng: random.Random,
) -> tuple[KnowledgeBase, World, dict[str, bool], list[str]]:
    """Crisp AND-circuit: returns (kb, world, leaf truth map, derived names)."""
    kb = KnowledgeBase()
    world = World("B")
    truth: dict[str, bool] = {}
    leaves = [f"leaf{i}" for i in range(rng.randint(2, 6))]
    for name in leaves:
        value = rng.random() < 0.5
        truth[name] = value
        assert_evidence(world, Atom(name), CERTAIN if value else IMPOSSIBLE, "seed")
    pool = list(leaves)
    derived: list[str] = []
    for i in range(rng.randint(1, 20)):
        name = f"d{i}"
        body = tuple(
            Atom(p) for p in rng.sample(pool, k=rng.randint(1, min(3, len(pool))))
        )
        kb.rules[f"r{i}"] = Rule(f"r{i}", (), body, Atom(name), 1.0, 1.0, rng.choice(FAMILIES))
        if len(kb.rules) < 29 and rng.random() < 0.3:
            # A second rule with the same body: reinforcement that cannot
            # disagree with the first.
            kb.rules[f"r{i}b"] = Rule(
                f"r{i}b", (), body, Atom(name), 1.0, 1.0, rng.choice(FAMILIES)
            )
        derived.append(name)
        pool.append(name)
        if len(kb.rules) >= 29:
            break
    return kb, world, truth, derived


def boolean_oracle(kb: KnowledgeBase, truth: dict[str, bool], predicate: str) -> bool:
    """Reference answer computed by plain boolean recursion."""
    bodies: dict[str, list[list[str]]] = {}
    for rule in kb.rules.values():
        bodies.setdefault(rule.consequent.predicate, []).append(
            [a.predicate for a in rule.antecedents]
        )
    memo: dict[str, bool] = {}

    def ev(p: str) -> bool:
        if p in truth:
            return truth[p]
        if p in memo:
            return memo[p]
        value = any(all(ev(q) for q in body) for body in bodies.get(p, []))
        memo[p] = value
        return value

    return ev(predicate)


def weighted_kb(
    rng: random.Random,
    n_rules: int = 50,
    with_contexts: bool = True,
    with_cases: bool = True,
) -> tuple[KnowledgeBase, World, list[str]]:
    """Layered acyclic KB with graded strengths.

    Facts keep upper bound 1.0 throughout so stacked source consensus
    can never invert; lower bounds, strengths, and necessities are free.
    Returns (kb, world, context atom names).
    """
    kb = KnowledgeBase()
    world = World("W")
    leaves = [f"atom{i}" for i in range(8)]
    for name in leaves:
        assert_evidence(
            world,
            Atom(name),
            CertaintyInterval(round(rng.uniform(0.0, 1.0), 6), 1.0),
            f"s{rng.randint(0, 2)}",
        )
    contexts = [f"ctx{i}" for i in range(4)]
    for name in contexts:
        if rng.random() < 0.7:
            assert_evidence(
                world,
                Atom(name),
                CertaintyInterval(round(rng.uniform(0.0, 1.0), 6), 1.0),
                "ctx",
            )
    pool = list(leaves)
    first_at = {name: i for i, name in enumerate(pool)}
    for i in range(n_rules):
        reuse = [p for p in pool if p not in leaves]
        if reuse and rng.random() < 0.3:
            target = rng.choice(reuse)
            candidates = pool[: first_at[target]]
        else:
            target = f"p{i}"
            candidates = pool
        body = tuple(
            Atom(p)
            for p in rng.sample(candidates, k=rng.randint(1, min(3, len(candidates))))
        )
        context = ()
        if with_contexts and rng.random() < 0.35:
            context = tuple(
                Atom(c) for c in rng.sample(contexts, k=rng.randint(1, 2))
            )
        kb.rules[f"r{i}"] = Rule(
            f"r{i}",
            context,
            body,
            Atom(target),
            round(rng.uniform(0.3, 1.0), 6),
            round(rng.uniform(0.0, 0.6), 6) if rng.random() < 0.4 else 0.0,
            rng.choice(FAMILIES),
        )
        if target not in first_at:
            first_at[target] = len(pool)
            pool.append(target)
        if rng.random() < 0.15:
            # Stored evidence about a derived conclusion itself.
            assert_evidence(
                world,
                Atom(target),
                CertaintyInterval(round(rng.uniform(0.0, 0.8), 6), 1.0),
                "prior",
            )
    if with_cases:
        derived = [p for p in pool if p not in leaves]
        if derived:
            kb.case_library.declare_path(("library", "general"))
            target = rng.choice(derived)
            candidates = pool[: first_at[target]]
            for j in range(rng.randint(1, 3)):
                body = tuple(
                    Atom(p)
                    for p in rng.sample(
                        candidates, k=rng.randint(1, min(3, len(candidates)))
                    )
                )
                context = ()
                if with_contexts and rng.random() < 0.3:
                    context = (Atom(rng.choice(contexts)),)
                kb.case_library.add(
                    CaseTemplate(
                        f"case{j}",
                        ("library", "general"),
                        (),
                        context,
                        body,
                        Atom(target),
                        round(rng.uniform(0.3, 1.0), 6),
                        0.0,
                        rng.choice(FAMILIES),
                    )
                )
            kb.precedent_links[target] = PrecedentLink(
                target, ("library",), rng.choice(FAMILIES)
            )
            kb.case_library.declare_path(("library",))
    return kb, world, contexts


def random_update(
    rng: random.Random, world: World, contexts: list[str]
) -> tuple[Atom, CertaintyInterval, str]:
    """One evidence update aimed at the kinds of atoms queries read."""
    choices = list(world.facts) + [Atom(c) for c in contexts] + [Atom(f"new{rng.randint(0, 3)}")]
    atom = rng.choice(choices)
    interval = CertaintyInterval(round(rng.uniform(0.0, 1.0), 6), 1.0)
    return atom, interval, f"s{rng.randint(0, 3)}"


_SEGMENTS = ["alpha", "beta", "gamma", "delta", "zone-a", "zone-b"]


def _ident(rng: random.Random, prefix: str, i: int) -> str:
    tail = rng.choice(["", "-x", "-long-name", "_v2", ".alt"])
    return f"{prefix}{i}{tail}"


def _strength(rng: random.Random) -> float:
    return rng.choice([0.0, 1.0, rng.random(), round(rng.random(), 3)])


def _atom(rng: random.Random, preds: list[str], vars_: list[str]) -> Atom:
    args = tuple(
        rng.choice(vars_ + ["Konst", "Other"])
        for _ in range(rng.randint(0, 2))
    )
    return Atom(rng.choice(preds), args)


def dsl_kb(rng: random.Random) -> KnowledgeBase:
    """A random KB exercising the whole declaration surface."""
    kb = KnowledgeBase()
    paths = set()
    for _ in range(rng.randint(1, 4)):
        depth = rng.randint(1, 3)
        paths.add(tuple(rng.sample(_SEGMENTS, k=depth)))
    for p in paths:
        kb.case_library.declare_path(p)
    preds = [_ident(rng, "pred", i) for i in range(rng.randint(2, 6))]
    vars_ = ["?x", "?y"]
    for i in range(rng.randint(0, 6)):
        context = tuple(
            _atom(rng, preds, vars_) for _ in range(rng.randint(0, 2))
        )
        body = tuple(_atom(rng, preds, vars_) for _ in range(rng.randint(1, 3)))
        kb.rules[f"rule-{i}"] = Rule(
            f"rule-{i}",
            context,
            body,
            _atom(rng, preds, vars_),
            _strength(rng),
            _strength(rng),
            rng.choice(FAMILIES),
            rule_class=rng.choice([(), tuple(rng.choice(sorted(paths)))]) if paths else (),
        )
    path_list = sorted(paths)
    for i in range(rng.randint(0, 4)):
        kb.case_library.add(
            CaseTemplate(
                f"case-{i}",
                rng.choice(path_list),
                tuple(rng.sample(vars_, k=rng.randint(0, 2))),
                tuple(_atom(rng, preds, vars_) for _ in range(rng.randint(0, 1))),
                tuple(_atom(rng, preds, vars_) for _ in range(rng.randint(1, 3))),
                _atom(rng, preds, vars_),
                _strength(rng),
                _strength(rng),
                rng.choice(FAMILIES),
            )
        )
    for pred in rng.sample(preds, k=rng.randint(0, min(2, len(preds)))):
        kb.precedent_links[pred] = PrecedentLink(
            pred, rng.choice(path_list), rng.choice(FAMILIES)
        )
    return kb


def diamond_kb(rng: random.Random, depth: int) -> tuple[KnowledgeBase, World, Atom]:
    """A chain of diamonds: l(i) and r(i) derive from n(i-1), n(i) joins them.

    The memo proves each atom once, but the proof walked as a tree
    visits n(i) 2**(depth-i) times.  On the top four levels each l/r
    atom may get a stored fact and a second rule straight from n0, so
    n0's sub-proof also recurs at several depths.  Necessity is 0 and
    upper bounds stay at 1, so no evidence conflicts.  Returns (kb,
    world, top goal).
    """
    kb = KnowledgeBase()
    world = World("D")
    assert_evidence(world, Atom("n0"), CertaintyInterval(rng.uniform(0.5, 1.0), 1.0), "seed")

    def rule(ident: str, body: tuple[str, ...], head: str, lo: float, hi: float) -> None:
        kb.rules[ident] = Rule(
            ident, (), tuple(map(Atom, body)), Atom(head), rng.uniform(lo, hi), 0.0,
            rng.choice(FAMILIES),
        )

    for i in range(1, depth + 1):
        rule(f"l{i}", (f"n{i - 1}",), f"l{i}", 0.8, 1.0)
        rule(f"r{i}", (f"n{i - 1}",), f"r{i}", 0.8, 1.0)
        rule(f"j{i}", (f"l{i}", f"r{i}"), f"n{i}", 0.8, 1.0)
    for i in range(max(1, depth - 3), depth + 1):
        for side in ("l", "r"):
            if rng.random() < 0.5:
                interval = CertaintyInterval(rng.uniform(0.0, 0.5), 1.0)
                assert_evidence(world, Atom(f"{side}{i}"), interval, "note")
            if rng.random() < 0.5:
                rule(f"{side}{i}-direct", ("n0",), f"{side}{i}", 0.3, 0.8)
    return kb, world, Atom(f"n{depth}")
