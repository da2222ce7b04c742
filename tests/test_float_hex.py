"""Bit-identical results, pinned as ``float.hex`` digests.

``tests/golden/float_hex.txt`` holds one line per entry: its name, how
many floats it covers, and the SHA-256 of their ``float.hex`` forms.
The entries are the saturated intervals of ``weighted_kb`` seeds 0-9 at
250 rules, those of every ``dsl_kb`` seed below 1,000 that validates and
derives something (saturated in a seeded world), and the pairwise
``case_similarity`` of one case fired in twelve seeded worlds.  A digest that moves on some
interpreter means the arithmetic is not the same there.

The check needs no pytest, so it runs on any interpreter:

    PYTHONPATH=src:tests python3 tests/test_float_hex.py

and ``--write`` regenerates the golden, which only a change meant to
alter results may do.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from generators import dsl_kb, weighted_kb
from possum.calculus import CertaintyInterval, ConflictPolicy, TNormFamily
from possum.cbr import CaseTemplate, PrecedentLink, case_similarity
from possum.dsl import parse_kb, render_kb
from possum.engine import QueryConfig, forward_saturate, prove
from possum.knowledge import Atom, KnowledgeBase, World, assert_evidence, validate

GOLDEN = Path(__file__).parent / "golden" / "float_hex.txt"
LENIENT = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
_CONSTANTS = ("Konst", "Other")


def _digest(floats: list[float]) -> str:
    return hashlib.sha256(" ".join(x.hex() for x in floats).encode()).hexdigest()


def _table_floats(table: dict[Atom, CertaintyInterval]) -> list[float]:
    floats = []
    for atom, interval in sorted(table.items(), key=lambda item: str(item[0])):
        floats += (interval.lower, interval.upper)
    return floats


def _dsl_world(kb: KnowledgeBase, rng: random.Random) -> World:
    """Roles for ``dsl_kb``'s two variables and evidence on every ground
    atom its predicates can form over the two constants."""
    world = World("w", roles={"?x": "Konst", "?y": "Other"})
    predicates = set()
    for item in [*kb.rules.values(), *kb.case_library.templates.values()]:
        for atom in (*item.context, *item.antecedents, item.consequent):
            predicates.add(atom.predicate)
    arguments = [()] + [(c,) for c in _CONSTANTS]
    arguments += [(a, b) for a in _CONSTANTS for b in _CONSTANTS]
    for predicate in sorted(predicates):
        for args in arguments:
            lower, upper = sorted((rng.random(), rng.random()))
            assert_evidence(world, Atom(predicate, args), CertaintyInterval(lower, upper), "s")
    return world


def _similarities() -> list[float]:
    """Pairwise similarity of one four-premise case fired in twelve worlds."""
    kb = KnowledgeBase()
    kb.case_library.declare_path(("p",))
    names = ("a", "b", "c", "d")
    kb.case_library.add(
        CaseTemplate(
            "t", ("p",), (), (), tuple(Atom(n) for n in names), Atom("q"),
            0.85, 0.2, TNormFamily.T2,
        )
    )
    kb.precedent_links["q"] = PrecedentLink("q", ("p",), TNormFamily.T2)
    rng = random.Random(7)
    cases = []
    for i in range(12):
        world = World(f"w{i}")
        for name in names:
            lower, upper = sorted((rng.random(), rng.random()))
            assert_evidence(world, Atom(name), CertaintyInterval(lower, upper), "s")
        (precedent,) = [
            node for node in prove(kb, world, Atom("q")).proof.children
            if node.kind == "precedent"
        ]
        (case,) = precedent.children
        cases.append(case)
    return [case_similarity(x, y) for i, x in enumerate(cases) for y in cases[i + 1 :]]


def digests() -> dict[str, tuple[int, str]]:
    """Each entry's name, with its float count and digest."""
    entries = {}
    for seed in range(10):
        kb, world, _ = weighted_kb(random.Random(seed), 250)
        floats = _table_floats(forward_saturate(kb, world, LENIENT))
        entries[f"weighted_kb/{seed}"] = floats
    for seed in range(1000):
        kb = dsl_kb(random.Random(seed))
        if validate(kb).ok():
            kb = parse_kb(render_kb(kb))
            world = _dsl_world(kb, random.Random(seed))
            floats = _table_floats(forward_saturate(kb, world, LENIENT))
            if floats:
                entries[f"dsl_kb/{seed}"] = floats
    entries["case_similarity"] = _similarities()
    return {name: (len(floats), _digest(floats)) for name, floats in entries.items()}


def read_golden() -> dict[str, tuple[int, str]]:
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        name, count, digest = line.split()
        golden[name] = (int(count), digest)
    return golden


def write_golden() -> None:
    GOLDEN.write_text(
        "".join(f"{name} {count} {digest}\n" for name, (count, digest) in digests().items())
    )


def test_results_match_the_float_hex_golden():
    golden = read_golden()
    assert len(golden) > 50
    assert digests() == golden


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_golden()
        sys.exit(0)
    golden, actual = read_golden(), digests()
    moved = sorted(
        name for name in golden.keys() | actual.keys() if golden.get(name) != actual.get(name)
    )
    print(f"float.hex golden on Python {sys.version.split()[0]}: ", end="")
    print(f"{len(golden) - len(moved)} of {len(golden)} entries match", *moved)
    sys.exit(1 if moved else 0)
