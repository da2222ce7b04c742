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

Each family's conjunction has an n-ary form and a two-argument form.
The n-ary form takes T1.5 and T2.5 through their closed forms (sum of
square roots, sum of reciprocals) and folds T1.  Those sums run left to
right in a plain loop: ``sum`` compensates its rounding from CPython
3.12 on, which would make results depend on the interpreter.  Outputs
are clamped so rounding never leaves [0, 1].  The two-argument form,
which ``detach`` and every step on two items use, is the n-ary form for
two values less the operations that cannot change a float there (adding
to 0.0, a clamp two values never reach), so the forms agree bit for bit.

On top of the raw norms this module provides the four combination
steps the inference engine is built from: antecedent evaluation,
detachment through a qualified implication, aggregation of parallel
support paths, and consensus across independent sources.

Values are checked once, where they enter.  ``CertaintyInterval``
checks its bounds when it is built, so the steps that read intervals
do not check them again: ``antecedent_eval`` and ``aggregate`` check
only the family.  Bare numbers are checked by the functions that take
them: ``tnorm``, the strengths of ``detach``,
``similarity_from_distance`` and ``transitivity_bound``.  Where a rule
fires, in ``CertaintyInterval`` and ``detach``, a ``float`` already in
[0, 1] passes with one class test and one chained comparison; any other
value (an ``int``, a ``bool``, a ``float`` subclass, NaN, a string) takes
the full check, which converts it or names it in its error.  A rule's
strengths are not checked ahead of its firing, so a bad one raises only
when a derivation reaches its rule.
"""

from __future__ import annotations

from enum import Enum
from math import prod, sqrt
from operator import mul
from typing import Callable, Iterable, Sequence

from ._records import FrozenRecord
from .errors import DomainError, EvidenceConflictError, SourceConflictError

__all__ = [
    "CertaintyInterval",
    "TNormFamily",
    "ConflictPolicy",
    "TOTAL_IGNORANCE",
    "CERTAIN",
    "IMPOSSIBLE",
    "tnorm",
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

# What counts as a number, for interval bounds and bare values alike.
_NUMBER = (int, float)


class TNormFamily(Enum):
    """The five conjunction families, tagged by liberality rank.

    Members are singletons and hash by identity, in C; ranks and labels
    come from tables built once, not from enum's ``value`` and ``name``.
    """

    T1 = 0
    T1_5 = 1
    T2 = 2
    T2_5 = 3
    T3 = 4

    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        """Surface spelling: ``T1.5`` rather than ``T1_5``."""
        return _LABEL[self]

    @classmethod
    def from_label(cls, label: str) -> "TNormFamily":
        try:
            return _FAMILY_BY_LABEL[label]
        except KeyError:
            raise DomainError(f"unknown t-norm family {label!r}") from None

    @classmethod
    def most_conservative(cls, families: Iterable["TNormFamily"]) -> "TNormFamily":
        fams = list(families)
        if not fams:
            raise DomainError("most_conservative of no families")
        return min(fams, key=_RANK.__getitem__)


_RANK = {family: family.value for family in TNormFamily}
_LABEL = {family: family.name.replace("_", ".") for family in TNormFamily}
_FAMILY_BY_LABEL = {label: family for family, label in _LABEL.items()}


class ConflictPolicy(Enum):
    """What to do when combined evidence inverts an interval."""

    STRICT = "strict"
    LENIENT = "lenient"


class CertaintyInterval(FrozenRecord):
    """Closed sub-interval [lower, upper] of the unit interval.

    lower is the degree of confirmation, upper the degree of failure to
    refute; construction rejects anything outside 0 <= lower <= upper <= 1.
    Instances are immutable value objects.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float) -> None:
        if not (lower.__class__ is upper.__class__ is float and 0.0 <= lower <= upper <= 1.0):
            if not (isinstance(lower, _NUMBER) and isinstance(upper, _NUMBER)):
                raise DomainError(f"interval bounds must be numbers, got {lower!r}, {upper!r}")
            lower, upper = float(lower), float(upper)
            if not (0.0 <= lower <= upper <= 1.0):
                raise DomainError(f"invalid certainty interval [{lower!r}, {upper!r}]")
        _set_lower(self, lower)
        _set_upper(self, upper)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))

    def complement(self) -> "CertaintyInterval":
        """Belief in the negated proposition: [1 - upper, 1 - lower]."""
        return CertaintyInterval(1.0 - self.upper, 1.0 - self.lower)

    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __str__(self) -> str:
        return f"[{self.lower:.4f}, {self.upper:.4f}]"


_set_lower, _set_upper = CertaintyInterval._setters

TOTAL_IGNORANCE = CertaintyInterval(0.0, 1.0)
CERTAIN = CertaintyInterval(1.0, 1.0)
IMPOSSIBLE = CertaintyInterval(0.0, 0.0)


def _check_unit(value: float, what: str) -> float:
    if not isinstance(value, _NUMBER):
        raise DomainError(f"{what} must be a number, got {value!r}")
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"{what} {value!r} outside [0, 1]")
    return v


def _clamp(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def _bounded_difference(values: Sequence[float]) -> float:
    acc = values[0]
    for v in values[1:]:
        acc = acc + v - 1.0
        if acc < 0.0:
            acc = 0.0
    return _clamp(acc)


def _bounded_difference_pair(a: float, b: float) -> float:
    x = a + b - 1.0  # at most 1.0
    return 0.0 if x < 0.0 else x


def _sqrt_form(values: Sequence[float]) -> float:
    s = 0.0
    for v in values:
        s += sqrt(v)
    r = s - (len(values) - 1)
    return _clamp(r * r) if r > 0.0 else 0.0


def _sqrt_pair(a: float, b: float) -> float:
    r = sqrt(a) + sqrt(b) - 1.0  # at most 1.0
    return r * r if r > 0.0 else 0.0


def _product(values: Sequence[float]) -> float:
    return _clamp(prod(values))


def _reciprocal_form(values: Sequence[float]) -> float:
    s = 0.0
    for v in values:
        if v == 0.0:
            # Limit of the reciprocal form as any argument -> 0+.
            return 0.0
        s += 1.0 / v
    return _clamp(1.0 / (s - (len(values) - 1)))


def _reciprocal_pair(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return 1.0 / (1.0 / a + 1.0 / b - 1.0)  # the divisor is at least 1.0


_Conjunction = Callable[[Sequence[float]], float]

_CONJUNCTIONS: dict[TNormFamily, _Conjunction] = {
    TNormFamily.T1: _bounded_difference,
    TNormFamily.T1_5: _sqrt_form,
    TNormFamily.T2: _product,
    TNormFamily.T2_5: _reciprocal_form,
    TNormFamily.T3: min,
}
_PAIRS: dict[TNormFamily, Callable[[float, float], float]] = {
    TNormFamily.T1: _bounded_difference_pair,
    TNormFamily.T1_5: _sqrt_pair,
    TNormFamily.T2: mul,
    TNormFamily.T2_5: _reciprocal_pair,
    TNormFamily.T3: min,
}


def tnorm(family: TNormFamily, values: Sequence[float]) -> float:
    """Conjunction of one or more certainty values.

    A single value passes through untouched; longer sequences combine by
    the family's fold (closed n-ary form for T1.5 and T2.5).
    """
    if family.__class__ is not TNormFamily:
        raise DomainError(f"tnorm needs a TNormFamily, got {family!r}")
    vals = [_check_unit(v, "tnorm argument") for v in values]
    if not vals:
        raise DomainError("tnorm of an empty sequence")
    return vals[0] if len(vals) == 1 else _CONJUNCTIONS[family](vals)


def antecedent_eval(family: TNormFamily, clauses: Sequence[CertaintyInterval]) -> CertaintyInterval:
    """Joint belief in a conjunction of clauses: [T(lowers), T(uppers)].

    Any clause at total ignorance drags the conjunction's lower bound to
    0 while the uppers keep what is still possible.  A single clause is
    returned exactly as given.
    """
    if family.__class__ is not TNormFamily:
        raise DomainError(f"antecedent_eval needs a TNormFamily, got {family!r}")
    if len(clauses) == 2:
        a, b = clauses
        conj = _PAIRS[family]
        lo = conj(a.lower, b.lower)
        hi = conj(a.upper, b.upper)
    elif len(clauses) > 2:
        conj = _CONJUNCTIONS[family]
        lo = conj([c.lower for c in clauses])
        hi = conj([c.upper for c in clauses])
    elif clauses:
        return clauses[0]
    else:
        raise DomainError("antecedent_eval of an empty clause list")
    # Forgive a rounding-level inversion, here and below.
    if lo > hi and lo - hi <= _SNAP:
        hi = lo
    return CertaintyInterval(lo, hi)


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
    s, n = sufficiency, necessity
    if not (s.__class__ is n.__class__ is float and 0.0 <= s <= 1.0 and 0.0 <= n <= 1.0):
        s = _check_unit(s, "sufficiency")
        n = _check_unit(n, "necessity")
    if family.__class__ is not TNormFamily:
        raise DomainError(f"detach needs a TNormFamily, got {family!r}")
    conj = _PAIRS[family]
    lo = conj(s, premise.lower)
    hi = 1.0 - conj(n, 1.0 - premise.upper)
    if lo > hi and lo - hi <= _SNAP:
        hi = lo
    return CertaintyInterval(lo, hi)


def aggregate(
    family: TNormFamily,
    paths: Sequence[CertaintyInterval],
    policy: ConflictPolicy = ConflictPolicy.STRICT,
    *,
    subject: object = "",
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
    substitutes total ignorance and appends a diagnostic to
    ``diagnostics`` (an ``engine.Notes`` keeps each message once).
    ``subject`` names the conclusion in that message, and is formatted
    only when a conflict is reported.
    """
    if family.__class__ is not TNormFamily:
        raise DomainError(f"aggregate needs a TNormFamily, got {family!r}")
    if len(paths) == 2:
        p, q = paths
        conj = _PAIRS[family]
        lo = 1.0 - conj(1.0 - p.lower, 1.0 - q.lower)
        hi = 1.0 - (1.0 - conj(1.0 - (1.0 - p.upper), 1.0 - (1.0 - q.upper)))
    elif len(paths) > 2:
        conj = _CONJUNCTIONS[family]  # each bound through the dual conorm
        lo = 1.0 - conj([1.0 - p.lower for p in paths])
        hi = 1.0 - (1.0 - conj([1.0 - (1.0 - p.upper) for p in paths]))
    elif paths:
        return paths[0]
    else:
        raise DomainError("aggregate of an empty path list")
    if lo > hi and lo - hi <= _SNAP:
        hi = lo
    if lo > hi:
        what = subject or "conclusion"
        message = (
            f"support paths for {what} conflict: "
            f"combined confirmation {lo:.4f} exceeds combined plausibility {hi:.4f}"
        )
        if policy is ConflictPolicy.STRICT:
            raise EvidenceConflictError(message)
        if diagnostics is not None:
            diagnostics.append(message)
        return TOTAL_IGNORANCE
    return CertaintyInterval(lo, hi)


def consensus(
    sources: Sequence[CertaintyInterval],
    policy: ConflictPolicy = ConflictPolicy.STRICT,
    *,
    labels: Sequence[str] | None = None,
    subject: object = "",
    diagnostics: list[str] | None = None,
) -> CertaintyInterval:
    """Reconcile independent reports about the same proposition.

    Each source rules out part of the unit interval, so the consensus is
    the intersection: [max of lowers, min of uppers].  An empty
    intersection means the sources genuinely disagree: strict policy
    raises SourceConflictError naming them, lenient substitutes total
    ignorance and appends a diagnostic to ``diagnostics``.  ``subject``
    names the proposition in that message, and is formatted only when a conflict
    is reported.
    """
    if len(sources) == 2:
        a, b = sources
        lo = max(a.lower, b.lower)
        hi = min(a.upper, b.upper)
    elif len(sources) > 2:
        lo = max(s.lower for s in sources)
        hi = min(s.upper for s in sources)
    elif sources:
        return sources[0]
    else:
        raise DomainError("consensus of an empty source list")
    if lo > hi and lo - hi <= _SNAP:
        hi = lo
    if lo > hi:
        what = subject or "fact"
        named = ", ".join(labels) if labels else f"{len(sources)} sources"
        message = (
            f"sources for {what} conflict ({named}): "
            f"intervals intersect nowhere (max lower {lo:.4f}, min upper {hi:.4f})"
        )
        if policy is ConflictPolicy.STRICT:
            raise SourceConflictError(message)
        if diagnostics is not None:
            diagnostics.append(message)
        return TOTAL_IGNORANCE
    return CertaintyInterval(lo, hi)


# The paper's claim that similarity is the complement of distance.
def similarity_from_distance(distance: float) -> float:
    """Turn a normalised distance into a similarity: S = 1 - d."""
    d = _check_unit(distance, "distance")
    return 1.0 - d


# The paper's claim that T-transitive similarity underlies the generalized modus ponens.
def transitivity_bound(family: TNormFamily, s_ac: float, s_cb: float) -> float:
    """Least similarity of A and B compatible with their similarities to C.

    For similarity derived from a metric, T1 is the tight choice (the
    bound is then the triangle inequality); for an ultrametric, T3.
    """
    a = _check_unit(s_ac, "similarity")
    b = _check_unit(s_cb, "similarity")
    if family.__class__ is not TNormFamily:
        raise DomainError(f"transitivity_bound needs a TNormFamily, got {family!r}")
    return _PAIRS[family](a, b)
