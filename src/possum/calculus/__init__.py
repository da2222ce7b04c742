"""Interval arithmetic for graded belief.

Belief in a proposition A is carried as a closed interval [L(A), U(A)]
inside [0, 1]: L measures how strongly the evidence confirms A, U how
strongly it fails to refute A (so L(not A) = 1 - U(A), and U - L is the
remaining ignorance).  [0, 1] is knowing nothing; [1, 1] is certainty;
[0.3, 0.3] is fully informed 30% belief, which is not the same state as
[0, 1] even though a single number could not tell them apart.

Conjunction and disjunction over such values are parameterised by a
T-norm family, ordered here from most conservative to most liberal:

    ===== ======================================== =================
    tag   T(a, b)                                  dual S(a, b)
    ===== ======================================== =================
    T1    max(0, a + b - 1)                        min(1, a + b)
    T1.5  (sqrt(a) + sqrt(b) - 1)^2, floored at 0  1 - T(1-a, 1-b)
    T2    a * b                                    a + b - a*b
    T2.5  1 / (1/a + 1/b - 1), 0 absorbing         1 - T(1-a, 1-b)
    T3    min(a, b)                                max(a, b)
    ===== ======================================== =================

T1 suits strongly correlated clauses, T2 independent ones, T3 mutually
exclusive alternatives; the half-step families sit between.  Every
family lies within the Frechet bounds T1 <= T <= T3 pointwise, so the
choice moves results monotonically along the table.

On top of the raw norms this module provides the four combination
steps the inference engine is built from: antecedent evaluation,
detachment through a qualified implication, aggregation of parallel
support paths, and consensus across independent sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from ..errors import DomainError, EvidenceConflictError, SourceConflictError
from . import _kernels

__all__ = [
    "CertaintyInterval",
    "TNormFamily",
    "ConflictPolicy",
    "TOTAL_IGNORANCE",
    "CERTAIN",
    "IMPOSSIBLE",
    "tnorm",
    "tconorm",
    "antecedent_eval",
    "detach",
    "aggregate",
    "consensus",
    "similarity_from_distance",
    "transitivity_bound",
]

# Interval inversions at or below this size are rounding noise (1-(1-x)
# is already off by one ulp); anything larger is treated as a genuine
# conflict.  Test tolerances sit three orders of magnitude above.
_SNAP = 1e-12


class TNormFamily(Enum):
    """The five conjunction families, tagged by liberality rank."""

    T1 = 0
    T1_5 = 1
    T2 = 2
    T2_5 = 3
    T3 = 4

    @property
    def code(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        """Surface spelling: ``T1.5`` rather than ``T1_5``."""
        return self.name.replace("_", ".")

    @classmethod
    def from_label(cls, label: str) -> "TNormFamily":
        for fam in cls:
            if fam.label == label:
                return fam
        raise DomainError(f"unknown t-norm family {label!r}")

    @classmethod
    def most_conservative(cls, families: Iterable["TNormFamily"]) -> "TNormFamily":
        fams = list(families)
        if not fams:
            raise DomainError("most_conservative of no families")
        return min(fams, key=lambda f: f.code)


class ConflictPolicy(Enum):
    """What to do when combined evidence inverts an interval."""

    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True, slots=True)
class CertaintyInterval:
    """Closed sub-interval [lower, upper] of the unit interval.

    lower is the degree of confirmation, upper the degree of failure to
    refute; construction rejects anything outside 0 <= lower <= upper <= 1.
    Instances are immutable value objects.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        try:
            lo = float(self.lower)
            hi = float(self.upper)
        except (TypeError, ValueError):
            raise DomainError(f"interval bounds must be numbers, got {self.lower!r}, {self.upper!r}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if not (0.0 <= lo <= hi <= 1.0):
            raise DomainError(f"invalid certainty interval [{lo!r}, {hi!r}]")

    def complement(self) -> "CertaintyInterval":
        """Belief in the negated proposition: [1 - upper, 1 - lower]."""
        return CertaintyInterval(1.0 - self.upper, 1.0 - self.lower)

    def ignorance(self) -> float:
        """Width of the interval; 0 is fully informed, 1 knows nothing."""
        return self.upper - self.lower

    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __str__(self) -> str:
        return f"[{self.lower:.4f}, {self.upper:.4f}]"


TOTAL_IGNORANCE = CertaintyInterval(0.0, 1.0)
CERTAIN = CertaintyInterval(1.0, 1.0)
IMPOSSIBLE = CertaintyInterval(0.0, 0.0)


def _check_unit(value: float, what: str) -> float:
    if not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"{what} {value!r} outside [0, 1]")
    return v


def _checked(family: TNormFamily, values: Sequence[float], op: str) -> tuple[float, ...]:
    if not isinstance(family, TNormFamily):
        raise DomainError(f"{op} needs a TNormFamily, got {family!r}")
    vals = tuple(_check_unit(v, f"{op} argument") for v in values)
    if not vals:
        raise DomainError(f"{op} of an empty sequence")
    return vals


def tnorm(family: TNormFamily, values: Sequence[float]) -> float:
    """Conjunction of one or more certainty values.

    A single value passes through untouched; longer sequences combine by
    the family's fold (closed n-ary form for T1.5 and T2.5).
    """
    vals = _checked(family, values, "tnorm")
    if len(vals) == 1:
        return vals[0]
    return _kernels.tnorm_many(family.code, vals)


def tconorm(family: TNormFamily, values: Sequence[float]) -> float:
    """Disjunction of one or more certainty values, dual to ``tnorm``."""
    vals = _checked(family, values, "tconorm")
    if len(vals) == 1:
        return vals[0]
    return _kernels.tconorm_many(family.code, vals)


def _snap(lower: float, upper: float) -> tuple[float, float]:
    # Forgive sub-_SNAP inversions; genuine conflicts are handled by the
    # caller before interval construction.
    if lower > upper and lower - upper <= _SNAP:
        return lower, lower
    return lower, upper


def antecedent_eval(family: TNormFamily, clauses: Sequence[CertaintyInterval]) -> CertaintyInterval:
    """Joint belief in a conjunction of clauses: [T(lowers), T(uppers)].

    Any clause at total ignorance drags the conjunction's lower bound to
    0 while the uppers keep what is still possible.
    """
    if not clauses:
        raise DomainError("antecedent_eval of an empty clause list")
    lo = tnorm(family, [c.lower for c in clauses])
    hi = tnorm(family, [c.upper for c in clauses])
    return CertaintyInterval(*_snap(lo, hi))


def detach(
    family: TNormFamily,
    sufficiency: float,
    necessity: float,
    premise: CertaintyInterval,
) -> CertaintyInterval:
    """Push belief through a qualified implication.

    sufficiency grades how far the premise forces the conclusion,
    necessity how far absence of the premise refutes it:

        lower = T(sufficiency, premise.lower)
        upper = 1 - T(necessity, 1 - premise.upper)

    With sufficiency 1 and necessity 1 this is the identity; necessity 0
    leaves the conclusion unrefuted (upper 1) no matter how weak the
    premise.
    """
    s = _check_unit(sufficiency, "sufficiency")
    n = _check_unit(necessity, "necessity")
    if not isinstance(family, TNormFamily):
        raise DomainError(f"detach needs a TNormFamily, got {family!r}")
    lo = _kernels.tnorm_pair(family.code, s, premise.lower)
    hi = 1.0 - _kernels.tnorm_pair(family.code, n, 1.0 - premise.upper)
    return CertaintyInterval(*_snap(lo, hi))


def aggregate(
    family: TNormFamily,
    paths: Sequence[CertaintyInterval],
    policy: ConflictPolicy = ConflictPolicy.STRICT,
    *,
    subject: str = "",
    diagnostics: list[str] | None = None,
) -> CertaintyInterval:
    """Combine parallel support paths for one conclusion.

    Confirmations reinforce through the dual conorm while refutations
    do the same on the complement side:

        lower = S(lower_1, ..., lower_m)
        upper = 1 - S(1 - upper_1, ..., 1 - upper_m)

    A single path is returned exactly as given.  Paths that jointly
    confirm and refute (combined lower above combined upper) are a
    conflict: strict policy raises EvidenceConflictError, lenient
    substitutes total ignorance and records a diagnostic once.
    """
    if not paths:
        raise DomainError("aggregate of an empty path list")
    if len(paths) == 1:
        return paths[0]
    lo = tconorm(family, [p.lower for p in paths])
    hi = 1.0 - tconorm(family, [1.0 - p.upper for p in paths])
    lo, hi = _snap(lo, hi)
    if lo > hi:
        what = subject or "conclusion"
        message = (
            f"support paths for {what} conflict: "
            f"combined confirmation {lo:.4f} exceeds combined plausibility {hi:.4f}"
        )
        if policy is ConflictPolicy.STRICT:
            raise EvidenceConflictError(message)
        if diagnostics is not None and message not in diagnostics:
            diagnostics.append(message)
        return TOTAL_IGNORANCE
    return CertaintyInterval(lo, hi)


def consensus(
    sources: Sequence[CertaintyInterval],
    policy: ConflictPolicy = ConflictPolicy.STRICT,
    *,
    labels: Sequence[str] | None = None,
    subject: str = "",
    diagnostics: list[str] | None = None,
) -> CertaintyInterval:
    """Reconcile independent reports about the same proposition.

    Each source rules out part of the unit interval, so the consensus is
    the intersection: [max of lowers, min of uppers].  An empty
    intersection means the sources genuinely disagree: strict policy
    raises SourceConflictError naming them, lenient substitutes total
    ignorance and records a diagnostic once.
    """
    if not sources:
        raise DomainError("consensus of an empty source list")
    if len(sources) == 1:
        return sources[0]
    lo = max(s.lower for s in sources)
    hi = min(s.upper for s in sources)
    lo, hi = _snap(lo, hi)
    if lo > hi:
        what = subject or "fact"
        named = ", ".join(labels) if labels else f"{len(sources)} sources"
        message = (
            f"sources for {what} conflict ({named}): "
            f"intervals intersect nowhere (max lower {lo:.4f}, min upper {hi:.4f})"
        )
        if policy is ConflictPolicy.STRICT:
            raise SourceConflictError(message)
        if diagnostics is not None and message not in diagnostics:
            diagnostics.append(message)
        return TOTAL_IGNORANCE
    return CertaintyInterval(lo, hi)


def similarity_from_distance(distance: float) -> float:
    """Turn a normalised distance into a similarity: S = 1 - d."""
    d = _check_unit(distance, "distance")
    return 1.0 - d


def transitivity_bound(family: TNormFamily, s_ac: float, s_cb: float) -> float:
    """Least similarity of A and B compatible with their similarities to C.

    For similarity derived from a metric, T1 is the tight choice (the
    bound is then the triangle inequality); for an ultrametric, T3.
    """
    a = _check_unit(s_ac, "similarity")
    b = _check_unit(s_cb, "similarity")
    if not isinstance(family, TNormFamily):
        raise DomainError(f"transitivity_bound needs a TNormFamily, got {family!r}")
    return _kernels.tnorm_pair(family.code, a, b)
