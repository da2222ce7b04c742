"""Layer probes that are not a workload's own operations.

Each returns plain numbers for the traced run: interval-kernel cost per
call, the growth of saturation time with knowledge-base size, and the
fixed costs of starting the command line (bare interpreter, importing
``possum.cli``).
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from possum.calculus import TNormFamily, tnorm

from inputs import weighted_kb


def kernel_ns() -> tuple[float, float]:
    """ns per pairwise and per n-ary conjunction, best of three passes.

    The inputs are those of ``benchmarks/bench_kernels.py`` (seed 1861:
    20,000 pairs and 4,000 vectors of 2 to 24 values), run through the
    public ``tnorm`` on whichever backend the package selected.
    """
    rng = random.Random(1861)
    pairs = [(rng.random(), rng.random()) for _ in range(20_000)]
    vectors = [[rng.random() for _ in range(rng.randint(2, 24))] for _ in range(4_000)]
    families = list(TNormFamily)

    def per_call(inputs) -> float:
        best = math.inf
        for _ in range(3):
            start = perf_counter_ns()
            for family in families:
                for values in inputs:
                    tnorm(family, values)
            best = min(best, perf_counter_ns() - start)
        return best / (len(inputs) * len(families))

    return per_call(pairs), per_call(vectors)


def scaling_exponent(seed: int, config, sizes=(1000, 2000, 4000)) -> float:
    """Least-squares slope of log(saturation time) over log(rules).

    1 means saturation time grows linearly with the rule count.  Each
    size is timed twice on its own seeded KB and the faster run kept.
    """
    from possum import engine

    xs, ys = [], []
    for n in sizes:
        kb, world, _ = weighted_kb(random.Random(seed * 100_003 + n), n)
        best = math.inf
        for _ in range(2):
            start = perf_counter()
            engine.forward_saturate(kb, world, config)
            best = min(best, perf_counter() - start)
        xs.append(math.log(n))
        ys.append(math.log(best))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import possum.cli; "
    "print(time.perf_counter() - t)"
)


def cli_startup_ms(env: dict, cwd: str, repeats: int = 5) -> tuple[float, float]:
    """Median ms to run a bare interpreter, and to import ``possum.cli`` in a fresh one."""
    bare, imports = [], []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60)
        bare.append((perf_counter() - start) * 1000)
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER],
            env=env, cwd=cwd, check=True, timeout=60, capture_output=True, text=True,
        )
        imports.append(float(done.stdout.strip()) * 1000)
    return statistics.median(bare), statistics.median(imports)
