"""The interval-arithmetic kernels.

Family codes are small ints, ordered from the most conservative
conjunction to the most liberal:

    0  bounded difference      max(0, a + b - 1)
    1  sqrt form               (sqrt(a) + sqrt(b) - 1)^2, floored at 0
    2  product                 a * b
    3  reciprocal form         1 / (1/a + 1/b - 1), with 0 absorbing
    4  min

Codes 1 and 3 extend to n arguments through their closed forms (sum of
square roots, sum of reciprocals); the others fold.  Those sums run left
to right in a plain loop, because ``sum`` compensates its rounding from
CPython 3.12 on and would make results depend on the interpreter.

Inputs are assumed validated by the caller: every value in [0, 1], at
least one value.  Outputs are clamped so accumulated rounding can never
leave [0, 1].
"""

from __future__ import annotations

from math import prod, sqrt


def _clamp(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def tnorm_pair(code: int, a: float, b: float) -> float:
    """Conjunction of two certainty values under one family."""
    if code == 0:
        return _clamp(a + b - 1.0)
    if code == 1:
        r = sqrt(a) + sqrt(b) - 1.0
        return _clamp(r * r) if r > 0.0 else 0.0
    if code == 2:
        return a * b
    if code == 3:
        if a == 0.0 or b == 0.0:
            # Limit of the reciprocal form as either argument -> 0+.
            return 0.0
        return _clamp(1.0 / (1.0 / a + 1.0 / b - 1.0))
    if code == 4:
        return a if a < b else b
    raise ValueError(f"unknown family code {code}")


def tnorm_many(code: int, values) -> float:
    """Conjunction of one or more certainty values under one family."""
    if code == 0:
        acc = values[0]
        for v in values[1:]:
            acc = acc + v - 1.0
            if acc < 0.0:
                acc = 0.0
        return _clamp(acc)
    if code == 1:
        s = 0.0
        for v in values:
            s += sqrt(v)
        r = s - (len(values) - 1)
        return _clamp(r * r) if r > 0.0 else 0.0
    if code == 2:
        return _clamp(prod(values))
    if code == 3:
        for v in values:
            if v == 0.0:
                return 0.0
        s = 0.0
        for v in values:
            s += 1.0 / v
        return _clamp(1.0 / (s - (len(values) - 1)))
    if code == 4:
        return min(values)
    raise ValueError(f"unknown family code {code}")


def tconorm_many(code: int, values) -> float:
    """Disjunction of one or more values, dual to ``tnorm_many``."""
    return 1.0 - tnorm_many(code, [1.0 - v for v in values])
