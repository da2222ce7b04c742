"""possum's benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload saturate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: possum is imported from
``src/``, nothing is installed.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the interpreter, the CPUs this process may use and the kernel
backend.

``--trace 0`` sets up the workload at least three times and for at
least 2.5 s (``setup_s`` is the median), then runs operations for
``--seconds`` and reports the end-to-end metrics.  Both times are given
at the reference host speed (see ``hostclock.py``); the line before the
result also prints them as measured.  ``--trace 1`` runs half the
time untraced and half with spans around every layer boundary, and
reports the per-layer metrics; the spans are written to
``.perfbench_out/``.  A layer that a workload does not exercise reads
0, as does a 90th percentile with fewer than ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per untraced run, at least; more while they total under
SETUP_SECONDS = 2.5  # this, so that a short set-up still has a steady median

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "calculus.calls": "count",
    "calculus.self_ms": "ms",
    "calculus.kernel.pair_ns": "ns",
    "calculus.kernel.nary_ns": "ns",
    "knowledge.substitute.calls": "count",
    "knowledge.substitute.self_ms": "ms",
    "knowledge.validate.ms": "ms",
    "knowledge.assert_evidence.ms": "ms",
    "dsl.parse_kb.ms": "ms",
    "dsl.parse_world.ms": "ms",
    "dsl.tokens_per_s": "1/s",
    "engine.forward_saturate.self_ms": "ms",
    "engine.rules_fired": "count",
    "engine.rule_scan.useful_ratio": "ratio",
    "engine.saturate.scaling_exponent": "slope",
    "engine.prove.ms": "ms",
    "engine.explain.ms": "ms",
    "engine.proof_to_dict.ms": "ms",
    "engine.proof.nodes_walked": "count",
    "engine.proof.nodes_distinct": "count",
    "engine.proof_walk.useful_ratio": "ratio",
    "engine.explain_lines": "lines",
    "cbr.precedent_support.calls": "count",
    "cbr.precedent_support.self_ms": "ms",
    "cbr.match.useful_ratio": "ratio",
    "revision.on_update.ms": "ms",
    "revision.recompute.ms": "ms",
    "revision.track.ms": "ms",
    "revision.query.ms": "ms",
    "revision.invalidated_per_update": "count",
    "revision.invalidation.useful_ratio": "ratio",
    "revision.update_over_scratch": "ratio",
    "update_ms.p50": "ms",
    "update_ms.p90": "ms",
    "read_ms.p50": "ms",
    "read_ms.p90": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "op_ms.p50": "ms",
    "trace.overhead": "ratio",
}


def run_loop(workload, state, seconds: float, clock, tracer=None, min_ops: int = 1):
    """Closed loop for ``seconds``, ending on a whole cycle of inputs.

    Returns per-op wall times (s) and the number of failed ops: an op
    that raised, or whose output the workload's check rejected.  Host
    speed is sampled on ``clock`` after every op, off the clock.
    """
    samples: list[float] = []
    failed = 0
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline or i % workload.cycle:
        if tracer is not None:
            tracer.paused = True
        prepared = workload.prepare(state, i)
        if tracer is not None:
            tracer.op = i
            tracer.paused = False
        start = perf_counter()
        try:
            if tracer is None:
                out = workload.op(state, i, prepared)
            else:
                with tracer.span("op"):
                    out = workload.op(state, i, prepared)
        except Exception:
            elapsed = perf_counter() - start
            if not failed:
                traceback.print_exc(file=sys.stderr)
            ok = False
        else:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.paused = True
            clock.sample(elapsed)
            try:
                ok = workload.check(state, i, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        samples.append(elapsed)
        failed += not ok
        i += 1
    if tracer is not None:
        tracer.paused = True
    return samples, failed


def untraced_run(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """End-to-end metrics with times at the reference host speed, the
    same figures as measured, and the ops attempted and failed."""
    setup_clock, op_clock = workload.host_clock(), workload.host_clock()
    setups: list[float] = []
    while len(setups) < SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < 100):
        start = perf_counter()
        state = workload.setup()
        setups.append(perf_counter() - start)
        setup_clock.sample(setups[-1])
    samples, failed = run_loop(workload, state, seconds, op_clock)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-demo" else resource.RUSAGE_SELF
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(samples) / sum(samples),
        "setup_host_factor": setup_clock.factor(),
        "op_host_factor": op_clock.factor(),
    }
    metrics = {
        "setup_s": measured["setup_s"] / measured["setup_host_factor"],
        "ops_per_s": measured["ops_per_s"] * measured["op_host_factor"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return metrics, measured, len(samples), failed


def traced_run(workload, seconds: float, meta: dict) -> tuple[dict, int, int]:
    import probes
    import tracing

    state = workload.setup()
    untraced_clock, traced_clock = workload.host_clock(), workload.host_clock()
    untraced, failed_untraced = run_loop(workload, state, seconds / 2, untraced_clock)
    traced_state = workload.setup()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.install(tracer, traced_state)
    try:
        traced, failed_traced = run_loop(
            workload, traced_state, seconds / 2, traced_clock, tracer, min_ops=workload.window
        )
    finally:
        tracer.restore()

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_metrics(tracer, workload, traced_state, len(traced)))
    metrics.update(workload.extras(state, traced_state, untraced))
    metrics["calculus.kernel.pair_ns"], metrics["calculus.kernel.nary_ns"] = probes.kernel_ns()
    metrics["op_ms.p50"] = statistics.median(untraced) * 1000
    metrics["trace.overhead"] = (len(traced) / sum(traced) * traced_clock.factor()) / (
        len(untraced) / sum(untraced) * untraced_clock.factor()
    )

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl", meta)
    return metrics, len(untraced) + len(traced), failed_untraced + failed_traced


def layer_metrics(tracer, workload, state, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans.

    Counts are per op over the first ``workload.window`` ops, which
    are the same for every run of one seed; times are per op, or per
    call for the ``.ms`` names, over the whole traced phase.
    """
    window = range(workload.window)
    per_window = len(window)

    def per_op_ms(ns: int) -> float:
        return ns / n_ops / 1e6

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    fired = tracer.calls("calculus.detach@engine", window)
    scan = sum(state.get("scan_base", {}).get(i, 0) for i in window)
    parse_ns = tracer.total_ns("dsl.parse_kb") + tracer.total_ns("dsl.parse_world")
    return {
        "calculus.calls": tracer.calls("calculus.", window) / per_window,
        "calculus.self_ms": per_op_ms(tracer.self_ns("calculus.")),
        "knowledge.substitute.calls": tracer.calls("knowledge.substitute", window) / per_window,
        "knowledge.substitute.self_ms": per_op_ms(tracer.self_ns("knowledge.substitute")),
        "knowledge.validate.ms": tracer.mean_ms("knowledge.validate"),
        "knowledge.assert_evidence.ms": tracer.mean_ms("knowledge.assert_evidence"),
        "dsl.parse_kb.ms": tracer.mean_ms("dsl.parse_kb"),
        "dsl.parse_world.ms": tracer.mean_ms("dsl.parse_world"),
        "dsl.tokens_per_s": ratio(tracer.amount("dsl.tokenize"), parse_ns / 1e9),
        "engine.forward_saturate.self_ms": per_op_ms(tracer.self_ns("engine.forward_saturate")),
        "engine.rules_fired": fired / per_window,
        "engine.rule_scan.useful_ratio": ratio(fired, scan),
        "engine.prove.ms": tracer.mean_ms("engine.prove"),
        "engine.explain.ms": tracer.mean_ms("engine.explain"),
        "engine.proof_to_dict.ms": tracer.mean_ms("engine.proof_to_dict"),
        "engine.explain_lines": ratio(
            tracer.amount("engine.explain", window), tracer.calls("engine.explain", window)
        ),
        "cbr.precedent_support.calls": tracer.calls("cbr.precedent_support", window) / per_window,
        "cbr.precedent_support.self_ms": per_op_ms(tracer.self_ns("cbr.precedent_support")),
        "cbr.match.useful_ratio": ratio(tracer.calls("cbr.match_case"), tracer.amount("cbr.retrieve")),
        "revision.on_update.ms": tracer.mean_ms("revision.on_update"),
        "revision.recompute.ms": tracer.mean_ms("revision.recompute"),
        "revision.track.ms": tracer.mean_ms("revision.track"),
        "revision.query.ms": tracer.mean_ms("revision.query"),
        "revision.invalidated_per_update": ratio(
            tracer.amount("revision.on_update", window), tracer.calls("revision.on_update", window)
        ),
    }


def environment() -> dict:
    import possum.calculus

    backend = getattr(possum.calculus, "kernel_backend", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend() if backend is not None else "python",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "possum" / "__init__.py").is_file():
        print(f"perfbench: {src} holds no possum sources; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import possum

    if Path(possum.__file__).resolve().parent != (src / "possum").resolve():
        print(f"perfbench: imported possum from {possum.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](str(ROOT), args.seed, traced=bool(args.trace))
    meta = dict(environment(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    if args.trace:
        values, attempted, failed = traced_run(workload, args.seconds, meta)
        units = PER_LAYER
    else:
        values, measured, attempted, failed = untraced_run(workload, args.seconds)
        units = END_TO_END
        meta.update((f"measured.{k}", round(v, 6)) for k, v in measured.items())
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
