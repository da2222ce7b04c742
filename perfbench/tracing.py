"""Spans around possum's layer boundaries, recorded from outside the package.

``Tracer.wrap`` replaces a name in a calling module (``possum.engine.detach``
is the ``detach`` that the engine imported) or a bound method on one
object with a timing wrapper, and ``Tracer.restore`` puts every original
back.  No possum source is edited.

A span is (name, start, end, parent, op): ``parent`` is the id of the
enclosing span, ``op`` the benchmark operation it belongs to.  Spans stay
in memory until ``dump`` writes them out.  Self time is a span's duration
minus the time its child spans cover.  Calls marked ``hot`` (interval
arithmetic and ``substitute``, hundreds of thousands per run) are leaves:
they are folded into per-(name, op) totals instead of being kept one by
one, which keeps the trace small without changing any total.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.paused = False  # set while the benchmark checks answers off the clock
        self.spans: list[tuple[str, int, int, int, int]] = []
        # (name, op) -> [calls, total_ns, self_ns, amount]
        self.totals: dict[tuple[str, int], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        hot: bool = False,
        amount: Callable[[object], int] | None = None,
    ) -> None:
        """Time every call made through ``owner.attr``; missing names are skipped.

        ``amount`` maps a call's result to a count added to the span's
        totals (tokens produced, lines rendered, atoms invalidated).  A
        recursive call made from inside the same name records no span of
        its own, so a recursive walk shows as one span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer.paused or (stack and stack[-1][1] == name):
                return original(*args, **kwargs)
            frame = [tracer._next_id, name, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(frame, start, end, hot)
            if amount is not None:
                tracer.totals[name, tracer.op][3] += amount(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def span(self, name: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _close(self, frame: list, start: int, end: int, hot: bool) -> None:
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        t = self.totals[frame[1], self.op]
        t[0] += 1
        t[1] += duration
        t[2] += duration - frame[2]
        if not hot:
            self.spans.append((frame[1], start, end, parent, self.op))

    # -- queries -------------------------------------------------------

    def _sum(self, prefix: str, field: int, ops: Iterable[int] | None) -> int:
        wanted = None if ops is None else set(ops)
        return sum(
            t[field]
            for (name, op), t in self.totals.items()
            if name.startswith(prefix) and (wanted is None or op in wanted)
        )

    def calls(self, prefix: str, ops: Iterable[int] | None = None) -> int:
        return self._sum(prefix, 0, ops)

    def total_ns(self, prefix: str, ops: Iterable[int] | None = None) -> int:
        return self._sum(prefix, 1, ops)

    def self_ns(self, prefix: str, ops: Iterable[int] | None = None) -> int:
        return self._sum(prefix, 2, ops)

    def amount(self, prefix: str, ops: Iterable[int] | None = None) -> int:
        return self._sum(prefix, 3, ops)

    def mean_ms(self, prefix: str) -> float:
        """Mean wall time per call, 0 when the name was never called."""
        n = self.calls(prefix)
        return self.total_ns(prefix) / n / 1e6 if n else 0.0

    def dump(self, path, meta: dict) -> None:
        """Write the run's metadata, every kept span and every total as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")
            for (name, op), (calls, total, self_time, amount) in sorted(self.totals.items()):
                out.write(
                    json.dumps(
                        {"total": name, "op": op, "calls": calls, "ns": total,
                         "self_ns": self_time, "amount": amount}
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.frame = [0, name, 0]

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.frame[0] = tracer._next_id
        tracer._next_id += 1
        tracer._stack.append(self.frame)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer._close(self.frame, self.start, end, False)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary possum's modules call through by name."""
    from possum import cbr, cli, dsl, engine, knowledge, revision

    for module, where in ((engine, "engine"), (cbr, "cbr")):
        for fn in ("antecedent_eval", "detach", "aggregate", "consensus"):
            tracer.wrap(module, fn, f"calculus.{fn}@{where}", hot=True)
    for module, where in ((engine, "engine"), (cbr, "cbr"), (dsl, "dsl")):
        tracer.wrap(module, "substitute", f"knowledge.substitute@{where}", hot=True)
    for module in (knowledge, cli):
        tracer.wrap(module, "validate", "knowledge.validate")
    for module in (engine, dsl, revision, cli):
        tracer.wrap(module, "assert_evidence", "knowledge.assert_evidence")
    tracer.wrap(dsl, "tokenize", "dsl.tokenize", amount=len)
    tracer.wrap(dsl, "parse_kb", "dsl.parse_kb")
    tracer.wrap(dsl, "parse_world", "dsl.parse_world")
    for module in (engine, cli):
        tracer.wrap(module, "forward_saturate", "engine.forward_saturate")
        tracer.wrap(module, "prove", "engine.prove")
        tracer.wrap(module, "explain", "engine.explain", amount=_line_count)
    tracer.wrap(engine, "proof_to_dict", "engine.proof_to_dict")
    tracer.wrap(engine, "precedent_support", "cbr.precedent_support")
    for module in (cbr, cli):
        tracer.wrap(module, "retrieve", "cbr.retrieve", amount=len)
    tracer.wrap(cbr, "match_case", "cbr.match_case")


def install_tracker(tracer: Tracer, tracker) -> None:
    """Wrap one DependencyTracker's bound methods (its own calls go through them)."""
    tracer.wrap(tracker, "on_update", "revision.on_update", amount=len)
    tracer.wrap(tracker, "recompute", "revision.recompute")
    tracer.wrap(tracker, "track", "revision.track")
    tracer.wrap(tracker, "query", "revision.query")


def _line_count(text: str) -> int:
    return text.count("\n") + 1
