"""Seeded input builders for the benchmark.

These are copies, not imports, of the suite's generators (plus a
diamond-chain builder the suite does not have), so that edits to the
test generators cannot shift the benchmark's baseline.  Every builder
takes a ``random.Random`` and returns possum objects; the same seed
always gives the same knowledge base and world.
"""

from __future__ import annotations

import random

from possum.calculus import CertaintyInterval, TNormFamily
from possum.cbr import CaseTemplate, PrecedentLink
from possum.knowledge import Atom, KnowledgeBase, Rule, World, assert_evidence

FAMILIES = list(TNormFamily)


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
    rng: random.Random, world: World, contexts: list[str], atom: Atom | None = None
) -> tuple[Atom, CertaintyInterval, str]:
    """One evidence update aimed at the kinds of atoms queries read.

    ``atom`` fixes the target instead of drawing it from the world's
    facts, the context atoms and four fresh atoms.
    """
    if atom is None:
        choices = list(world.facts) + [Atom(c) for c in contexts] + [Atom(f"new{rng.randint(0, 3)}")]
        atom = rng.choice(choices)
    interval = CertaintyInterval(round(rng.uniform(0.0, 1.0), 6), 1.0)
    return atom, interval, f"s{rng.randint(0, 3)}"


def update_targets(world: World, contexts: list[str]) -> list[Atom]:
    """The stored facts and four fresh atoms, leaving out the context atoms."""
    skip = {Atom(c) for c in contexts}
    return [a for a in world.facts if a not in skip] + [Atom(f"new{k}") for k in range(4)]


def redraw_evidence(world: World, rng: random.Random, keep: list[str]) -> World:
    """A copy of the world with every source's lower bound drawn again.

    Atoms, sources and upper bounds (all 1.0) stay as they were, and so
    do the facts about the predicates in ``keep``.
    """
    fresh = World(world.identifier, dict(world.roles), askables=set(world.askables))
    for atom, fact in world.facts.items():
        for source in fact.sources():
            interval = fact.evidence[source]
            if atom.predicate not in keep:
                interval = CertaintyInterval(round(rng.uniform(0.0, 1.0), 6), 1.0)
            assert_evidence(fresh, atom, interval, source)
    return fresh


def diamond_chain(rng: random.Random, depth: int) -> tuple[KnowledgeBase, World, Atom]:
    """A chain of diamonds: level i has rules n(i-1) -> l(i), n(i-1) -> r(i)
    and the join l(i), r(i) -> n(i).

    The memo proves each atom once, but a proof walked as a tree visits
    n(i) 2**(depth-i) times, so explanation size doubles per level.
    On the top four levels, each ``l``/``r`` atom may get a stored fact
    and a second rule straight from n0.  These make the rule count and
    the proof's size depend on the seed while keeping the proof within
    a few hundred nodes of 7 * 2**depth.  Necessity is 0 throughout, so
    derived upper bounds stay at 1 and a stored fact can never conflict.
    Returns (kb, world, deepest goal).
    """
    kb = KnowledgeBase()
    world = World("D")
    assert_evidence(
        world, Atom("n0"), CertaintyInterval(round(rng.uniform(0.5, 1.0), 6), 1.0), "seed"
    )
    for i in range(1, depth + 1):
        for side in ("l", "r"):
            kb.rules[f"{side}{i}"] = Rule(
                f"{side}{i}",
                (),
                (Atom(f"n{i - 1}"),),
                Atom(f"{side}{i}"),
                round(rng.uniform(0.8, 1.0), 6),
                0.0,
                rng.choice(FAMILIES),
            )
        kb.rules[f"j{i}"] = Rule(
            f"j{i}",
            (),
            (Atom(f"l{i}"), Atom(f"r{i}")),
            Atom(f"n{i}"),
            round(rng.uniform(0.8, 1.0), 6),
            0.0,
            rng.choice(FAMILIES),
        )
    for i in range(max(1, depth - 3), depth + 1):
        for side in ("l", "r"):
            if rng.random() < 0.5:
                assert_evidence(
                    world,
                    Atom(f"{side}{i}"),
                    CertaintyInterval(round(rng.uniform(0.0, 0.5), 6), 1.0),
                    "note",
                )
            if rng.random() < 0.5:
                kb.rules[f"{side}{i}-direct"] = Rule(
                    f"{side}{i}-direct",
                    (),
                    (Atom("n0"),),
                    Atom(f"{side}{i}"),
                    round(rng.uniform(0.3, 0.8), 6),
                    0.0,
                    rng.choice(FAMILIES),
                )
    return kb, world, Atom(f"n{depth}")
