"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen (without -s they appear in pytest's captured output).
Expected values are either computed inline by independent formulas or
taken from closed forms; none are copied out of the implementation.
"""

import functools
import math
import random
from importlib import resources

import pytest

from possum.calculus import (
    CERTAIN,
    CertaintyInterval,
    ConflictPolicy,
    EvidenceConflictError,
    IMPOSSIBLE,
    TNormFamily,
    TOTAL_IGNORANCE,
    aggregate,
    similarity_from_distance,
    tnorm,
    transitivity_bound,
)
from possum.dsl import parse_kb, parse_world, render_kb
from possum.engine import QueryConfig, QuerySession, forward_saturate, prove
from possum.errors import ParseError, ParseFailure
from possum.knowledge import Atom
from possum.revision import DependencyTracker
from generators import (
    boolean_kb,
    boolean_oracle,
    dsl_kb,
    random_update,
    weighted_kb,
)

FAMILIES = list(TNormFamily)
GRID = [round(i * 0.05, 2) for i in range(21)]
DATA = resources.files("possum").joinpath("data")


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL: criterion {number} - {title}")
                raise
            print(f"\nPASS: criterion {number} - {title}")

        return wrapper

    return deco


@criterion(1, "t-norm axioms on the 0.05 grid")
def test_criterion_01_axioms():
    tol = 1e-9
    for family in FAMILIES:
        for a in GRID:
            assert abs(tnorm(family, [a, 1.0]) - a) <= tol
            for b in GRID:
                ab = tnorm(family, [a, b])
                assert abs(ab - tnorm(family, [b, a])) <= tol
                for c in GRID:
                    left = tnorm(family, [ab, c])
                    right = tnorm(family, [a, tnorm(family, [b, c])])
                    assert abs(left - right) <= tol
        for b in GRID:
            previous = 0.0
            for a in GRID:
                current = tnorm(family, [a, b])
                assert current >= previous - tol
                previous = current


@criterion(2, "Frechet bounds and liberality ordering")
def test_criterion_02_bounds_and_ordering():
    tol = 1e-9
    ordered = [
        TNormFamily.T1,
        TNormFamily.T1_5,
        TNormFamily.T2,
        TNormFamily.T2_5,
        TNormFamily.T3,
    ]
    for a in GRID:
        for b in GRID:
            frechet_low = max(0.0, a + b - 1.0)
            frechet_high = min(a, b)
            values = [tnorm(f, [a, b]) for f in ordered]
            for value in values:
                assert frechet_low - tol <= value <= frechet_high + tol
            for weaker, stronger in zip(values, values[1:]):
                assert weaker <= stronger + tol


@criterion(3, "DeMorgan duality and involution at 1e-12")
def test_criterion_03_duality():
    tol = 1e-12
    for family in FAMILIES:
        for a in GRID:
            for b in GRID:
                # aggregate reinforces confirmations through the dual
                # conorm, and refutations through it on the complements.
                dual = 1.0 - tnorm(family, [1.0 - a, 1.0 - b])
                confirmed = aggregate(family, [CertaintyInterval(v, 1.0) for v in (a, b)])
                assert abs(confirmed.lower - dual) <= tol
                refuted = aggregate(family, [CertaintyInterval(0.0, v) for v in (a, b)])
                assert abs(refuted.upper - tnorm(family, [a, b])) <= tol
    for lo in GRID:
        for hi in GRID:
            if lo > hi:
                continue
            interval = CertaintyInterval(lo, hi)
            twice = interval.complement().complement()
            assert abs(twice.lower - lo) <= tol
            assert abs(twice.upper - hi) <= tol


@criterion(4, "crisp reduction to boolean backward chaining, 200 KBs")
def test_criterion_04_crisp_reduction():
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        kb, world, truth, derived = boolean_kb(rng)
        assert len(kb.rules) <= 30
        session = QuerySession(kb, world)
        for name in derived:
            expected = boolean_oracle(kb, truth, name)
            got = session.evaluate(Atom(name))
            assert got == (CERTAIN if expected else IMPOSSIBLE), (
                f"seed {seed}, goal {name}"
            )


@criterion(5, "aggregation identity and the constructed conflict")
def test_criterion_05_aggregation_identity_and_conflict():
    sole = CertaintyInterval(0.3216, 0.7408)
    for family in FAMILIES:
        assert aggregate(family, [sole]) is sole
    clash = [CertaintyInterval(0.9, 1.0), CertaintyInterval(0.0, 0.1)]
    with pytest.raises(EvidenceConflictError):
        aggregate(TNormFamily.T2, clash)
    notes: list[str] = []
    fallback = aggregate(
        TNormFamily.T2, clash, ConflictPolicy.LENIENT, diagnostics=notes
    )
    assert fallback == TOTAL_IGNORANCE
    assert notes


def _euclidean_metric(rng, n=8):
    points = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
    d = [[0.0] * n for _ in range(n)]
    largest = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            gap = math.dist(points[i], points[j])
            d[i][j] = d[j][i] = gap
            largest = max(largest, gap)
    for i in range(n):
        for j in range(n):
            d[i][j] /= largest
    return d


def _ultrametric(rng, n=8):
    # Random agglomeration: merging two clusters at ever-increasing
    # heights makes the merge height of any two points an ultrametric.
    clusters = [[i] for i in range(n)]
    heights = sorted(rng.random() for _ in range(n - 1))
    d = [[0.0] * n for _ in range(n)]
    for height in heights:
        a, b = rng.sample(range(len(clusters)), 2)
        for i in clusters[a]:
            for j in clusters[b]:
                d[i][j] = d[j][i] = height
        merged = clusters[a] + clusters[b]
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
    return d


def _check_transitivity(d, family, tol=1e-12):
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s_ij = similarity_from_distance(d[i][j])
                s_ik = similarity_from_distance(d[i][k])
                s_kj = similarity_from_distance(d[k][j])
                assert s_ij >= transitivity_bound(family, s_ik, s_kj) - tol


@criterion(6, "similarity transitivity: metric vs ultrametric bounds")
def test_criterion_06_similarity_transitivity():
    for seed in range(100):
        rng = random.Random(60_000 + seed)
        _check_transitivity(_euclidean_metric(rng), TNormFamily.T1)
    for seed in range(100):
        rng = random.Random(61_000 + seed)
        _check_transitivity(_ultrametric(rng), TNormFamily.T3)


@criterion(7, "belief revision equals from-scratch over 100 updates")
def test_criterion_07_revision_equivalence():
    rng = random.Random(70_001)
    kb, world, contexts = weighted_kb(rng, n_rules=50)
    config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
    tracker = DependencyTracker(kb, world, config)
    goals = sorted({r.consequent for r in kb.rules.values()}, key=str)
    for goal in goals:
        tracker.query(goal)
    for step in range(100):
        atom, interval, source = random_update(rng, world, contexts)
        tracker.on_update(atom, interval, source)
        tracker.recompute()
        for goal in goals:
            scratch = prove(kb, world.copy(), goal, config)
            assert tracker.records[goal].cached == scratch.interval, (
                f"step {step}, goal {goal}"
            )


def _collect(node, kind):
    out = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.kind == kind:
            out.append(current)
        stack.extend(current.children)
    return out


@criterion(8, "demo knowledge base matches the hand-written oracle chain")
def test_criterion_08_demo_end_to_end():
    kb = parse_kb(DATA.joinpath("demo.kb").read_text(), "demo.kb")
    world = parse_world(DATA.joinpath("m1.world").read_text(), "m1.world")
    result = prove(kb, world, Atom("anti-trust-success", ("?raider", "?target")))

    # Oracle chain, written out operation by operation with plain
    # arithmetic.  Products because every declaration picks the product
    # family; s2 is its dual disjunction.
    def s2(x, y):
        return 1.0 - (1.0 - x) * (1.0 - y)

    highly = 0.9 * 0.8                      # concentration screen at 1800
    moderately = 0.95 * 0.95                # concentration screen at 1000
    large_lo = s2(0.85 * highly, 0.3 * moderately)
    lobby_lo = 0.75 * 0.8                   # political lobby path
    askable_lo = 0.8 * 0.0                  # unanswered askable premise
    brown_shoe = 0.9 * (0.9 * large_lo)
    mobil = 0.85 * (0.9 * large_lo * 0.7)
    pabst = 0.8 * (large_lo * 0.7)
    precedent_lo = s2(s2(brown_shoe, mobil), pabst)
    derived_lo = s2(s2(lobby_lo, askable_lo), precedent_lo)
    final_lo = max(derived_lo, 0.5)         # consensus with the prior
    final_hi = min(1.0, 0.98)

    assert result.interval.lower == pytest.approx(final_lo, abs=1e-9)
    assert result.interval.upper == pytest.approx(final_hi, abs=1e-9)

    # Shape: one precedent node expanding at least two case
    # instantiations (brown-shoe and pabst among them) next to direct
    # rule support, all under the goal's aggregation.
    assert result.proof.kind == "aggregation"
    precedents = _collect(result.proof, "precedent")
    assert len(precedents) == 1
    cases = {n.provenance for n in _collect(precedents[0], "case-instance")}
    assert len(cases) >= 2
    assert {"brown-shoe", "pabst"} <= cases
    rules_used = {n.provenance for n in _collect(result.proof, "rule-instance")}
    assert "political-lobby-defense" in rules_used


@criterion(9, "forward saturation agrees with backward queries")
def test_criterion_09_forward_backward_agreement():
    kb = parse_kb(DATA.joinpath("demo.kb").read_text(), "demo.kb")
    world = parse_world(DATA.joinpath("m1.world").read_text(), "m1.world")
    table = forward_saturate(kb, world.copy())
    assert table
    for goal, interval in table.items():
        assert prove(kb, world.copy(), goal).interval == interval
    config = QueryConfig(conflict_policy=ConflictPolicy.LENIENT)
    for seed in range(50):
        rng = random.Random(90_000 + seed)
        kb, world, _ = weighted_kb(rng, n_rules=16)
        table = forward_saturate(kb, world.copy(), config)
        for goal, interval in table.items():
            assert prove(kb, world.copy(), goal, config).interval == interval, (
                f"seed {seed}, goal {goal}"
            )


SEEDED_ERRORS = [
    ("rule r tnorm T9 suff 0.5 nec 0 { if (a) then (b) }", 1, 14),
    ("lexicon { big = 1.5; }", 1, 17),
    ("rule r tnorm T2\nsuff 1.2 nec 0 { if (a) then (b) }", 2, 6),
    ("taxonomy a/b\nrule r tnorm T2 suff 1 nec 0 { if (a) then (b) }", 2, 1),
    ("rule r tnorm T2 suff 0.5 nec 0 {\n  if (a)\n  then b\n}", 3, 8),
    ("world w {\n  fact (p) [0.9, 0.2];\n}", 2, 12),
    ("world w {\n  roles ?x = A ?x = B;\n}", 2, 16),
    ("world w {\n  fact (p q] [0, 1];\n}", 2, 12),
    ("case c path x tnorm T2 suff 0.5 nec 0 {\n  roles\n  if (a)\n  then (b)\n}", 1, 13),
    ("rule r tnorm T2 suff 0.5 nec 0 {\n  if (a)\n  then (b)", 3, 11),
]


@criterion(10, "language round-trip and exact error positions")
def test_criterion_10_dsl_round_trip():
    for name in ("demo.kb",):
        kb = parse_kb(DATA.joinpath(name).read_text(), name)
        assert parse_kb(render_kb(kb)) == kb
    for seed in range(100):
        kb = dsl_kb(random.Random(100_000 + seed))
        assert parse_kb(render_kb(kb), f"gen{seed}") == kb, f"seed {seed}"
    for text, line, column in SEEDED_ERRORS:
        is_world = text.startswith("world")
        with pytest.raises((ParseError, ParseFailure)) as exc:
            if is_world:
                parse_world(text, "seeded")
            else:
                parse_kb(text, "seeded")
        err = exc.value
        if isinstance(err, ParseFailure):
            err = err.errors[0]
        assert (err.line, err.column) == (line, column), text
