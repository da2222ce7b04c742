"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that:

* every input builder yields knowledge bases that pass ``validate()``,
  for two seeds;
* ``BENCHMARK.json`` declares the metrics and units ``run.py`` prints;
* every per-layer count repeats exactly for one seed and, on the
  workloads whose inputs are generated, changes under another seed
  (cli-demo always runs the bundled demo, so only repetition applies);
* every traced run answers correctly;
* the benchmark fails, without printing a result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = (
    "calculus.calls",
    "knowledge.substitute.calls",
    "engine.rules_fired",
    "engine.proof.nodes_walked",
    "engine.proof.nodes_distinct",
    "engine.explain_lines",
    "cbr.precedent_support.calls",
    "revision.invalidated_per_update",
)
# Counts that follow the generated inputs.  Every weighted KB has one
# precedent link, so its call count is the same under every seed.
SEEDED = tuple(name for name in COUNTS if name != "cbr.precedent_support.calls")
GENERATED = ("saturate", "revise", "explain")


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_inputs(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    from possum.knowledge import validate

    for seed in (1, 2):
        rng = random.Random(seed)
        built = [inputs.weighted_kb(rng, n)[0] for n in (200, 1000, 2000, 4000)]
        built += [inputs.diamond_chain(rng, depth)[0] for depth in (12, 13, 14)]
        for kb in built:
            report = validate(kb)
            if not report.ok():
                problems.append(f"seed {seed}: generated KB fails validate: {report.messages()}")


def check_counts(problems: list[str]) -> None:
    for workload in ("saturate", "revise", "explain", "cli-demo"):
        first, again, other = traced(workload, 1), traced(workload, 1), traced(workload, 2)
        for run in (first, again, other):
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload}: {run['failed']} of {run['attempted']} ops failed")
        for name in COUNTS:
            a, b, c = (run["metrics"][name]["value"] for run in (first, again, other))
            if a != b:
                problems.append(f"{workload}: {name} differs between runs of one seed: {a} vs {b}")
            if workload in GENERATED and name in SEEDED and a and a == c:
                problems.append(f"{workload}: {name} is {a} under seeds 1 and 2")
        print(f"{workload}: " + ", ".join(
            f"{name}={first['metrics'][name]['value']:g}" for name in COUNTS
            if first["metrics"][name]["value"]
        ))


def check_declared_metrics(problems: list[str]) -> None:
    """BENCHMARK.json declares exactly the metrics, and units, that run.py prints."""
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != printed:
            problems.append(f"BENCHMARK.json {key} differs from what run.py prints")


def check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "saturate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("benchmark did not fail in a directory without the sources")


def main() -> int:
    problems: list[str] = []
    check_inputs(problems)
    check_declared_metrics(problems)
    check_bare_directory(problems)
    check_counts(problems)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
