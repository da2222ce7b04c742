"""The four workloads: what one operation is, how it is set up and checked.

Every workload runs closed-loop: one client issues the next operation
only after the previous one returned.  ``prepare`` (draw the next input)
and ``check`` (compare the output with an independent answer) run off
the clock; only ``op`` is timed.  ``extras`` turns what the checks
recorded into per-layer metrics for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

from possum import cli, dsl, engine, knowledge
from possum.calculus import ConflictPolicy
from possum.revision import DependencyTracker

import probes
import tracing
from hostclock import HostClock
from inputs import diamond_chain, random_update, redraw_evidence, update_targets, weighted_kb

LENIENT = ConflictPolicy.LENIENT
# A fresh interpreter that imports hostclock and runs its kernel 25 times;
# its median time on a 2-vCPU VM, CPython 3.11.7.
INTERPRETER_KERNEL = "import hostclock\nfor _ in range(25): hostclock.python_kernel()"
INTERPRETER_REFERENCE_S = 0.14


def _config() -> engine.QueryConfig:
    return engine.QueryConfig(conflict_policy=LENIENT)


def _validated(kb) -> None:
    report = knowledge.validate(kb)
    if not report.ok():
        raise ValueError("generated knowledge base does not validate: " + "; ".join(report.messages()))


def p90(samples: list[float]) -> float:
    """The 90th percentile, or 0 when fewer than ten samples lie beyond it."""
    if len(samples) < 100:
        return 0.0
    return statistics.quantiles(samples, n=10)[-1]


class Workload:
    name = ""
    cycle = 1  # a run ends on a multiple of this many ops, so every input weighs the same
    window = 1  # per-layer counts are taken over the first ``window`` traced ops

    def __init__(self, root: str, seed: int, traced: bool):
        self.root = root
        self.seed = seed
        self.traced = traced

    def setup(self):
        raise NotImplementedError

    def prepare(self, state, i):
        return None

    def op(self, state, i, prepared):
        raise NotImplementedError

    def check(self, state, i, out) -> bool:
        raise NotImplementedError

    def host_clock(self) -> HostClock:
        """A clock whose kernel is the kind of work this workload's ops do."""
        return HostClock()

    def install(self, tracer, state) -> None:
        """Wrap objects the workload owns, beyond possum's module-level names."""

    def extras(self, state, traced_state, untraced: list[float]) -> dict[str, float]:
        """Per-layer metrics from the untraced phase's state and samples and
        the traced phase's state (whose first ``window`` ops repeat exactly)."""
        return {}


class Saturate(Workload):
    """Parse, validate and forward-saturate 2,000-rule weighted KBs."""

    name = "saturate"
    KBS = 5
    RULES = 2000
    cycle = window = KBS

    def setup(self):
        rng = random.Random(self.seed)
        texts = []
        for _ in range(self.KBS):
            kb, world, _ = weighted_kb(rng, self.RULES)
            _validated(kb)
            texts.append((dsl.render_kb(kb), dsl.render_world(world)))
        return {"texts": texts, "reference": {}, "scan_base": {}}

    def op(self, state, i, prepared):
        kb_text, world_text = state["texts"][i % self.KBS]
        kb = dsl.parse_kb(kb_text)
        world = dsl.parse_world(world_text, policy=LENIENT)
        report = knowledge.validate(kb)
        if not report.ok():
            raise ValueError("; ".join(report.messages()))
        return engine.forward_saturate(kb, world, _config()), len(kb.rules)

    def check(self, state, i, out) -> bool:
        forward, n_rules = out
        k = i % self.KBS
        if k not in state["reference"]:
            state["reference"][k] = self._backward(*state["texts"][k], goals=list(forward))
        reference, goals_evaluated = state["reference"][k]
        state["scan_base"][i] = goals_evaluated * n_rules
        return forward == reference

    @staticmethod
    def _backward(kb_text, world_text, goals):
        """Every goal proved backward, conclusions first, in one memoized session."""
        kb = dsl.parse_kb(kb_text)
        world = dsl.parse_world(world_text, policy=LENIENT)
        session = engine.QuerySession(kb, world, _config())
        answers, evaluated = {}, set()
        for goal in reversed(goals):
            result = session.prove(goal)
            answers[goal] = result.interval
            evaluated.update(result.dependencies)
        return answers, len(evaluated)

    def extras(self, state, traced_state, untraced):
        return {"engine.saturate.scaling_exponent": probes.scaling_exponent(self.seed, _config())}


class Revise(Workload):
    """Belief revision: each op is one update (on_update + recompute) and two reads."""

    name = "revise"
    TRACKERS = 3
    RULES = 200
    CHECK_EVERY = 5
    cycle = 1
    window = 15

    def setup(self):
        rng = random.Random(self.seed)
        trackers = []
        for k in range(self.TRACKERS):
            # Update cost follows how deeply a KB's conclusions share
            # premises and which rules its context atoms switch on; both
            # differ several-fold between 200-rule KBs.  So the shapes
            # and the context facts are fixed, and the seed draws the
            # other evidence, the update order and the reads.
            kb, world, contexts = weighted_kb(random.Random(f"revise-{k}"), self.RULES)
            world = redraw_evidence(world, rng, keep=contexts)
            _validated(kb)
            tracker = DependencyTracker(kb, world, _config())
            goals = sorted(engine.forward_saturate(kb, world.copy(), _config()), key=str)
            for goal in goals:
                tracker.query(goal)
            trackers.append(
                {"kb": kb, "world": world, "contexts": contexts, "tracker": tracker,
                 "goals": goals, "shadow": world.copy(),
                 "targets": update_targets(world, contexts), "schedule": []}
            )
        return {"rng": rng, "trackers": trackers, "update_ms": [], "read_ms": [],
                "scratch_ms": [], "changed": {}, "invalidated": {}}

    def install(self, tracer, state) -> None:
        for t in state["trackers"]:
            tracing.install_tracker(tracer, t["tracker"])

    def prepare(self, state, i):
        """Draw the next update and two goals to read.

        Each tracker updates every stored fact and four fresh atoms once
        per round, in a fresh seeded order each round.  An update's cost
        follows how many conclusions read its atom, so visiting atoms
        evenly, rather than drawing them independently, keeps the mix of
        cheap and expensive updates the same from run to run.  Context
        atoms are not updated: each flip of one switches a third of the
        rules on or off, and the few flips a run sees would set its
        cost.  Intervals that would leave the atom's effective interval
        as it was are drawn again, on a shadow copy of the world, so
        every timed update is a real change.
        """
        rng = state["rng"]
        t = state["trackers"][i % self.TRACKERS]
        if not t["schedule"]:
            t["schedule"] = rng.sample(t["targets"], len(t["targets"]))
        target = t["schedule"].pop()
        for _ in range(1000):
            atom, interval, source = random_update(rng, t["shadow"], t["contexts"], target)
            if knowledge.assert_evidence(t["shadow"], atom, interval, source, LENIENT):
                break
        reads = [rng.choice(t["goals"]), rng.choice(t["goals"])]
        before = {a: r.cached for a, r in t["tracker"].records.items()}
        return t, (atom, interval, source), reads, before

    def op(self, state, i, prepared):
        t, update, reads, before = prepared
        tracker = t["tracker"]
        start = perf_counter()
        stale = tracker.on_update(*update)
        refreshed = tracker.recompute(stale)
        mid = perf_counter()
        answers = {}
        for goal in reads:
            read_start = perf_counter()
            answers[goal] = tracker.query(goal).interval
            state["read_ms"].append((perf_counter() - read_start) * 1000)
        state["update_ms"].append((mid - start) * 1000)
        return t, answers, stale, refreshed, before

    def check(self, state, i, out) -> bool:
        """At checkpoints: tracked and read intervals equal a from-scratch saturation."""
        t, answers, stale, refreshed, before = out
        state["invalidated"][i] = len(stale)
        state["changed"][i] = sum(refreshed[a] != before.get(a) for a in stale)
        if i % self.CHECK_EVERY != self.CHECK_EVERY - 1:
            return True
        tracker = t["tracker"]
        start = perf_counter()
        scratch = engine.forward_saturate(t["kb"], t["world"].copy(), _config())
        state["scratch_ms"].append((perf_counter() - start) * 1000)
        stale = tracker.stale()
        tracked_ok = all(
            record.cached == scratch.get(atom)
            for atom, record in tracker.records.items()
            if atom not in stale
        )
        return tracked_ok and all(scratch.get(g) == iv for g, iv in answers.items())

    def extras(self, state, traced_state, untraced):
        updates, reads = state["update_ms"], state["read_ms"]
        window = range(self.window)
        invalidated = sum(traced_state["invalidated"][i] for i in window)
        changed = sum(traced_state["changed"][i] for i in window)
        return {
            "update_ms.p50": statistics.median(updates),
            "update_ms.p90": p90(updates),
            "read_ms.p50": statistics.median(reads),
            "read_ms.p90": p90(reads),
            "revision.invalidation.useful_ratio": changed / invalidated if invalidated else 0.0,
            "revision.update_over_scratch": (
                statistics.fmean(updates) / statistics.fmean(state["scratch_ms"])
                if state["scratch_ms"] else 0.0
            ),
        }


class Explain(Workload):
    """Prove the top of a diamond chain, explain it and serialise the proof."""

    name = "explain"
    DEPTH = 12
    CHAINS = 3
    cycle = window = CHAINS

    def setup(self):
        rng = random.Random(self.seed)
        chains = []
        for _ in range(self.CHAINS):
            kb, world, goal = diamond_chain(rng, self.DEPTH)
            _validated(kb)
            kb = dsl.parse_kb(dsl.render_kb(kb))
            world = dsl.parse_world(dsl.render_world(world), policy=LENIENT)
            chains.append((kb, world, goal))
        return {"chains": chains, "reference": {}, "walks": {}, "scan_base": {}}

    def op(self, state, i, prepared):
        kb, world, goal = state["chains"][i % self.CHAINS]
        result = engine.prove(kb, world, goal, _config())
        text = engine.explain(result)
        blob = json.dumps(engine.result_to_dict(result))
        return result, text, blob

    def check(self, state, i, out) -> bool:
        result, text, blob = out
        k = i % self.CHAINS
        kb, world, goal = state["chains"][k]
        if k not in state["reference"]:
            state["reference"][k] = engine.forward_saturate(kb, world, _config())[goal]
        walked, distinct = _proof_size(result.proof)
        state["walks"][i] = (walked, distinct)
        state["scan_base"][i] = len(result.dependencies) * len(kb.rules)
        lines = text.count("\n") + 1
        iv = result.interval
        head = json.dumps({"goal": str(result.goal), "interval": [iv.lower, iv.upper]})
        return (
            result.interval == state["reference"][k]
            and lines == walked + len(result.diagnostics)
            and blob.startswith(head[:-1])
        )

    def extras(self, state, traced_state, untraced):
        walks = [traced_state["walks"][i] for i in range(self.window)]
        walked = sum(w for w, _ in walks)
        distinct = sum(d for _, d in walks)
        return {
            "engine.proof.nodes_walked": walked / len(walks),
            "engine.proof.nodes_distinct": distinct / len(walks),
            "engine.proof_walk.useful_ratio": distinct / walked,
        }


def _proof_size(root) -> tuple[int, int]:
    """Nodes a tree walk of the proof visits, and distinct node objects."""
    size: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in size:
            continue
        if expanded:
            size[id(node)] = 1 + sum(size[id(c)] for c in node.children)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if id(c) not in size)
    return size[id(root)], len(size)


class CliDemo(Workload):
    """One ``possum`` process per op on the bundled demo.

    Untraced, each op starts ``python -m possum.cli``.  A child process
    cannot be traced from here, so the traced run calls ``cli.main`` in
    process instead, with stdout captured, for both of its phases.
    """

    name = "cli-demo"
    GOAL = "(anti-trust-success ?raider ?target)"
    ANSWER = "[0.9382, 0.9800]"
    VERBS = ("query", "explain", "saturate", "cases", "load")
    cycle = window = len(VERBS)

    def _argv(self, verb: str) -> list[str]:
        data = os.path.join(self.root, "src", "possum", "data")
        kb, world = os.path.join(data, "demo.kb"), os.path.join(data, "m1.world")
        return {
            "query": ["query", kb, world, self.GOAL],
            "explain": ["explain", kb, world, self.GOAL],
            "saturate": ["saturate", kb, world],
            "cases": ["cases", kb, "defense/anti-trust", world],
            "load": ["load", kb, world],
        }[verb]

    def env(self) -> dict:
        src = os.path.join(self.root, "src")
        return dict(os.environ, PYTHONPATH=src, POSSUM_COLOR="never")

    def host_clock(self) -> HostClock:
        """Untraced, an op is a fresh interpreter that starts, imports and
        runs Python, which a host under load slows by another ratio than
        it slows this process's own Python code; so the kernel is such
        an interpreter, running the in-process kernel."""
        if self.traced:
            return HostClock()
        return HostClock(self._interpreter_kernel, INTERPRETER_REFERENCE_S)

    def _interpreter_kernel(self) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        subprocess.run(
            [sys.executable, "-c", INTERPRETER_KERNEL],
            env=dict(os.environ, PYTHONPATH=here), cwd=self.root, check=True, timeout=60,
        )

    def setup(self):
        rng = random.Random(self.seed)
        subprocess.run(
            [sys.executable, "-c", "import possum.cli"],
            env=self.env(), cwd=self.root, check=True, timeout=120,
        )
        expected = {verb: self._in_process(verb) for verb in self.VERBS}
        return {"rng": rng, "order": [], "expected": expected}

    def _in_process(self, verb: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self._argv(verb))
        return code, out.getvalue()

    def prepare(self, state, i):
        if not state["order"]:
            state["order"] = list(state["rng"].sample(self.VERBS, len(self.VERBS)))
        return state["order"].pop()

    def op(self, state, i, verb):
        if self.traced:
            return (verb,) + self._in_process(verb)
        done = subprocess.run(
            [sys.executable, "-m", "possum.cli", *self._argv(verb)],
            env=self.env(), cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        return verb, done.returncode, done.stdout

    def check(self, state, i, out) -> bool:
        verb, code, stdout = out
        if code != 0 or (code, stdout) != state["expected"][verb]:
            return False
        return verb != "query" or self.ANSWER in stdout

    def extras(self, state, traced_state, untraced):
        interpreter, imports = probes.cli_startup_ms(self.env(), self.root)
        return {
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": imports,
            "cli.main_ms": statistics.fmean(untraced) * 1000,
        }


WORKLOADS = {w.name: w for w in (Saturate, Revise, Explain, CliDemo)}
