from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from possum.calculus import (
    CERTAIN,
    IMPOSSIBLE,
    TOTAL_IGNORANCE,
    CertaintyInterval,
    ConflictPolicy,
    TNormFamily,
    aggregate,
    antecedent_eval,
    consensus,
    detach,
    similarity_from_distance,
    tnorm,
    transitivity_bound,
)
from possum.errors import DomainError, EvidenceConflictError, SourceConflictError

from conftest import FAMILIES, GRID, TOL, families, intervals, unit_floats

T1, T1_5, T2, T2_5, T3 = FAMILIES


def _conorm(family, values):
    """The dual conorm of ``values``, as ``aggregate`` reinforces
    confirmations with it: the lower bound of paths ``[v, 1]``."""
    return aggregate(family, [CertaintyInterval(v, 1.0) for v in values]).lower


class _Half(float):
    """A float subclass with its own repr, which no message may show."""

    def __repr__(self) -> str:
        return "_Half(...)"


class TestIntervalType:
    def test_valid_construction(self):
        iv = CertaintyInterval(0.3, 0.9)
        assert iv.lower == 0.3
        assert iv.upper == 0.9

    def test_degenerate_point_interval(self):
        point = CertaintyInterval(0.5, 0.5)
        assert point.lower == point.upper == 0.5

    @pytest.mark.parametrize("lo,hi", [(0.9, 0.3), (-0.1, 0.5), (0.5, 1.1), (2.0, 3.0)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(DomainError):
            CertaintyInterval(lo, hi)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError):
            CertaintyInterval("a", 1.0)

    @pytest.mark.parametrize("lo,hi", [("0.5", 1.0), (0.5, "1"), ("0.5", "1")])
    def test_rejects_numeric_strings(self, lo, hi):
        with pytest.raises(DomainError):
            CertaintyInterval(lo, hi)

    def test_coerces_ints(self):
        iv = CertaintyInterval(0, 1)
        assert isinstance(iv.lower, float) and iv.lower == 0.0
        assert isinstance(iv.upper, float) and iv.upper == 1.0

    @pytest.mark.parametrize("lo,hi", [(False, True), (0, 1), (_Half(0.25), _Half(0.5))])
    def test_bools_ints_and_float_subclasses_become_plain_floats(self, lo, hi):
        iv = CertaintyInterval(lo, hi)
        assert (iv.lower.__class__, iv.upper.__class__) == (float, float)
        assert (iv.lower, iv.upper) == (float(lo), float(hi))
        assert repr(iv) == f"CertaintyInterval(lower={float(lo)!r}, upper={float(hi)!r})"

    @pytest.mark.parametrize(
        "lo,hi,message",
        [
            (math.nan, 0.5, "invalid certainty interval [nan, 0.5]"),
            (0.5, math.nan, "invalid certainty interval [0.5, nan]"),
            (_Half(0.75), _Half(0.5), "invalid certainty interval [0.75, 0.5]"),
            (_Half(math.nan), 1, "invalid certainty interval [nan, 1.0]"),
            (2, True, "invalid certainty interval [2.0, 1.0]"),
            (None, 0.5, "interval bounds must be numbers, got None, 0.5"),
        ],
    )
    def test_bad_bounds_are_named_as_before(self, lo, hi, message):
        with pytest.raises(DomainError) as err:
            CertaintyInterval(lo, hi)
        assert str(err.value) == message

    def test_named_constants(self):
        assert TOTAL_IGNORANCE == CertaintyInterval(0.0, 1.0)
        assert CERTAIN == CertaintyInterval(1.0, 1.0)
        assert IMPOSSIBLE == CertaintyInterval(0.0, 0.0)

    def test_complement_swaps_and_reflects(self):
        c = CertaintyInterval(0.3, 0.9).complement()
        assert c.lower == pytest.approx(0.1, abs=TOL)
        assert c.upper == pytest.approx(0.7, abs=TOL)

    @given(intervals())
    def test_complement_involution(self, iv):
        back = iv.complement().complement()
        assert abs(back.lower - iv.lower) <= 1e-12
        assert abs(back.upper - iv.upper) <= 1e-12

    def test_four_decimal_rendering(self):
        assert str(CertaintyInterval(0.93818, 0.98)) == "[0.9382, 0.9800]"
        assert str(TOTAL_IGNORANCE) == "[0.0000, 1.0000]"


class TestNormPointValues:
    """Hand-computed values for every family."""

    @pytest.mark.parametrize(
        "family,a,b,expect",
        [
            (T1, 0.7, 0.6, 0.3),  # 0.7 + 0.6 - 1
            (T1, 0.3, 0.4, 0.0),
            (T1_5, 0.25, 0.25, 0.0),  # sqrt sum = 1, boundary
            (T1_5, 0.81, 0.81, 0.64),  # (0.9 + 0.9 - 1)^2
            (T2, 0.5, 0.5, 0.25),
            (T2_5, 0.5, 0.5, 1.0 / 3.0),  # 1 / (2 + 2 - 1)
            (T2_5, 0.0, 0.7, 0.0),  # absorbing limit
            (T3, 0.7, 0.6, 0.6),
        ],
    )
    def test_tnorm_pairs(self, family, a, b, expect):
        assert tnorm(family, [a, b]) == pytest.approx(expect, abs=TOL)

    @pytest.mark.parametrize(
        "family,a,b,expect",
        [
            (T1, 0.7, 0.6, 1.0),  # min(1, a + b)
            (T1, 0.3, 0.4, 0.7),
            (T2, 0.5, 0.5, 0.75),  # a + b - ab
            (T3, 0.1, 0.9, 0.9),  # max
        ],
    )
    def test_tconorm_pairs(self, family, a, b, expect):
        assert _conorm(family, [a, b]) == pytest.approx(expect, abs=TOL)

    def test_nary_closed_forms(self):
        # T1.5 over three values via the closed sum-of-roots form.
        vals = [0.81, 0.64, 0.49]
        r = math.sqrt(0.81) + math.sqrt(0.64) + math.sqrt(0.49) - 2
        assert tnorm(T1_5, vals) == pytest.approx(r * r, abs=TOL)
        # T2.5 via the sum-of-reciprocals form.
        vals = [0.5, 0.25, 0.8]
        s = 1 / 0.5 + 1 / 0.25 + 1 / 0.8 - 2
        assert tnorm(T2_5, vals) == pytest.approx(1 / s, abs=TOL)

    def test_singleton_passthrough_is_exact(self):
        for fam in FAMILIES:
            assert tnorm(fam, [0.37]) == 0.37

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            tnorm(T2, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            tnorm(T2, [0.5, 1.2])
        with pytest.raises(DomainError):
            tnorm(T2, [-0.1])


class TestNormAxioms:
    """Commutativity, associativity, monotonicity, boundary on the grid."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_commutative(self, family):
        for a in GRID:
            for b in GRID:
                assert tnorm(family, [a, b]) == pytest.approx(tnorm(family, [b, a]), abs=TOL)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_associative(self, family):
        for a in GRID[::2]:
            for b in GRID[::2]:
                for c in GRID[::2]:
                    left = tnorm(family, [tnorm(family, [a, b]), c])
                    right = tnorm(family, [a, tnorm(family, [b, c])])
                    assert left == pytest.approx(right, abs=TOL)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_monotone(self, family):
        for b in GRID:
            prev = None
            for a in GRID:
                cur = tnorm(family, [a, b])
                if prev is not None:
                    assert cur >= prev - TOL
                prev = cur

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_is_identity(self, family):
        for a in GRID:
            assert tnorm(family, [a, 1.0]) == pytest.approx(a, abs=TOL)
            assert tnorm(family, [1.0, a]) == pytest.approx(a, abs=TOL)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_absorbs(self, family):
        for a in GRID:
            assert tnorm(family, [a, 0.0]) == 0.0
            assert tnorm(family, [0.0, a]) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_conorm_boundary(self, family):
        for a in GRID:
            assert _conorm(family, [a, 0.0]) == pytest.approx(a, abs=1e-12)
            assert _conorm(family, [a, 1.0]) == pytest.approx(1.0, abs=1e-12)

    @given(families, unit_floats, unit_floats)
    def test_frechet_bounds(self, family, a, b):
        t = tnorm(family, [a, b])
        assert t >= max(0.0, a + b - 1.0) - TOL
        assert t <= min(a, b) + TOL

    @given(unit_floats, unit_floats)
    def test_liberality_ordering(self, a, b):
        vals = [tnorm(f, [a, b]) for f in FAMILIES]
        for weaker, stronger in zip(vals, vals[1:]):
            assert weaker <= stronger + TOL

    @given(families, st.lists(unit_floats, min_size=2, max_size=6))
    def test_nary_equals_binary_fold(self, family, vals):
        folded = vals[0]
        for v in vals[1:]:
            folded = tnorm(family, [folded, v])
        assert tnorm(family, vals) == pytest.approx(folded, abs=TOL)

    @given(families, st.lists(unit_floats, min_size=2, max_size=6))
    def test_demorgan_duality(self, family, vals):
        dual = 1.0 - tnorm(family, [1.0 - v for v in vals])
        assert _conorm(family, vals) == dual

    @given(families, st.lists(unit_floats, min_size=1, max_size=6))
    def test_results_stay_in_unit_interval(self, family, vals):
        assert 0.0 <= tnorm(family, vals) <= 1.0
        assert 0.0 <= _conorm(family, vals) <= 1.0


class TestAntecedentEval:
    def test_two_clause_example(self):
        # T2: [0.9 * 0.8, 1.0 * 1.0]
        got = antecedent_eval(T2, [CertaintyInterval(0.9, 1.0), CertaintyInterval(0.8, 1.0)])
        assert got.lower == pytest.approx(0.72, abs=TOL)
        assert got.upper == pytest.approx(1.0, abs=TOL)

    def test_ignorant_clause_drags_lower_to_zero(self):
        got = antecedent_eval(T2, [CertaintyInterval(0.9, 1.0), TOTAL_IGNORANCE])
        assert got.lower == 0.0
        assert got.upper == pytest.approx(1.0, abs=TOL)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            antecedent_eval(T2, [])

    @given(families, st.lists(intervals(), min_size=1, max_size=5))
    def test_always_a_valid_interval(self, family, clauses):
        got = antecedent_eval(family, clauses)
        assert 0.0 <= got.lower <= got.upper <= 1.0


class TestDetach:
    def test_point_example(self):
        # lower 0.85 * 0.7, upper stays 1 with necessity 0.
        got = detach(T2, 0.85, 0.0, CertaintyInterval(0.7, 1.0))
        assert got.lower == pytest.approx(0.595, abs=TOL)
        assert got.upper == 1.0

    def test_necessity_refutes(self):
        # upper = 1 - T2(0.8, 1 - 0.4) = 1 - 0.48
        got = detach(T2, 0.9, 0.8, CertaintyInterval(0.2, 0.4))
        assert got.lower == pytest.approx(0.18, abs=TOL)
        assert got.upper == pytest.approx(0.52, abs=TOL)

    @given(families, intervals())
    def test_full_strength_is_identity(self, family, premise):
        got = detach(family, 1.0, 1.0, premise)
        assert got.lower == pytest.approx(premise.lower, abs=TOL)
        assert got.upper == pytest.approx(premise.upper, abs=TOL)

    @given(families, unit_floats, intervals())
    def test_zero_necessity_never_refutes(self, family, s, premise):
        assert detach(family, s, 0.0, premise).upper == 1.0

    @given(families, unit_floats, unit_floats, intervals())
    def test_always_a_valid_interval(self, family, s, n, premise):
        got = detach(family, s, n, premise)
        assert 0.0 <= got.lower <= got.upper <= 1.0

    def test_rejects_out_of_range_strengths(self):
        with pytest.raises(DomainError):
            detach(T2, 1.2, 0.0, CERTAIN)
        with pytest.raises(DomainError):
            detach(T2, 0.5, -0.5, CERTAIN)

    @pytest.mark.parametrize("s,n", [(1, 0), (True, False), (_Half(0.5), _Half(0.25))])
    def test_bools_ints_and_float_subclasses_are_strengths(self, s, n):
        premise = CertaintyInterval(0.6, 0.8)
        assert detach(T2, s, n, premise) == detach(T2, float(s), float(n), premise)

    @pytest.mark.parametrize(
        "s,n,message",
        [
            (1.5, 0.0, "sufficiency 1.5 outside [0, 1]"),
            (math.nan, 2.0, "sufficiency nan outside [0, 1]"),
            (0.5, math.nan, "necessity nan outside [0, 1]"),
            (_Half(1.5), 0.0, "sufficiency _Half(...) outside [0, 1]"),
            (2, 0, "sufficiency 2 outside [0, 1]"),
            (0.5, "0", "necessity must be a number, got '0'"),
            (None, -1, "sufficiency must be a number, got None"),
        ],
    )
    def test_bad_strengths_are_named_as_before(self, s, n, message):
        with pytest.raises(DomainError) as err:
            detach(T2, s, n, CERTAIN)
        assert str(err.value) == message


class TestAggregate:
    def test_two_path_reinforcement(self):
        # S2(0.595, 0.6) = 0.595 + 0.6 - 0.595 * 0.6
        got = aggregate(T2, [CertaintyInterval(0.595, 1.0), CertaintyInterval(0.6, 1.0)])
        assert got.lower == pytest.approx(0.838, abs=TOL)
        assert got.upper == pytest.approx(1.0, abs=TOL)

    def test_singleton_is_identity_exactly(self):
        path = CertaintyInterval(0.123456, 0.654321)
        assert aggregate(T2, [path]) is path

    def test_conflict_strict_raises(self):
        paths = [CertaintyInterval(0.9, 1.0), CertaintyInterval(0.0, 0.1)]
        with pytest.raises(EvidenceConflictError) as exc:
            aggregate(T2, paths, ConflictPolicy.STRICT, subject="(guilt defendant)")
        assert "(guilt defendant)" in str(exc.value)

    def test_conflict_lenient_substitutes_ignorance(self):
        paths = [CertaintyInterval(0.9, 1.0), CertaintyInterval(0.0, 0.1)]
        notes: list[str] = []
        got = aggregate(T2, paths, ConflictPolicy.LENIENT, diagnostics=notes)
        assert got == TOTAL_IGNORANCE
        assert len(notes) == 1 and "conflict" in notes[0]

    def test_ignorance_path_leaves_lower_alone(self):
        path = CertaintyInterval(0.7, 1.0)
        got = aggregate(T2, [path, TOTAL_IGNORANCE])
        assert got.lower == pytest.approx(0.7, abs=1e-12)
        assert got.upper == pytest.approx(1.0, abs=1e-12)

    @given(families, st.lists(intervals(), min_size=2, max_size=5))
    def test_order_insensitive(self, family, paths):
        notes: list[str] = []
        a = aggregate(family, paths, ConflictPolicy.LENIENT, diagnostics=notes)
        b = aggregate(family, list(reversed(paths)), ConflictPolicy.LENIENT, diagnostics=notes)
        assert abs(a.lower - b.lower) <= 1e-12
        assert abs(a.upper - b.upper) <= 1e-12

    @given(families, st.lists(intervals(), min_size=2, max_size=5))
    def test_lenient_never_raises(self, family, paths):
        got = aggregate(family, paths, ConflictPolicy.LENIENT)
        assert 0.0 <= got.lower <= got.upper <= 1.0

    def test_rounding_level_inversion_snaps_instead_of_conflicting(self):
        # Under T3 aggregation keeps max-lower / min-upper, so duplicated
        # point intervals have equal true bounds; the computed upper is a
        # 1 - (1 - x) round trip and lands one ulp low.  Must not raise.
        path = CertaintyInterval(0.1, 0.1)
        got = aggregate(T3, [path, path])
        assert got.lower == pytest.approx(0.1, abs=1e-12)
        assert got.upper == pytest.approx(0.1, abs=1e-12)
        assert got.lower <= got.upper

    def test_reinforcing_families_conflict_on_duplicated_points(self):
        # Two independent paths each pinning belief at exactly 0.4 jointly
        # confirm to 0.64 and jointly refute to 0.16: a genuine conflict,
        # not rounding noise.
        path = CertaintyInterval(0.4, 0.4)
        with pytest.raises(EvidenceConflictError):
            aggregate(T2, [path, path])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            aggregate(T2, [])


class TestConsensus:
    def test_intersection(self):
        got = consensus([CertaintyInterval(0.6, 0.9), CertaintyInterval(0.7, 1.0)])
        assert got.lower == pytest.approx(0.7, abs=TOL)
        assert got.upper == pytest.approx(0.9, abs=TOL)

    def test_singleton_is_identity(self):
        src = CertaintyInterval(0.2, 0.8)
        assert consensus([src]) is src

    def test_disjoint_strict_raises_with_labels(self):
        with pytest.raises(SourceConflictError) as exc:
            consensus(
                [CertaintyInterval(0.8, 1.0), CertaintyInterval(0.0, 0.3)],
                labels=["registry", "informant"],
                subject="(solvent acme)",
            )
        msg = str(exc.value)
        assert "registry" in msg and "informant" in msg

    def test_disjoint_lenient_substitutes_ignorance(self):
        notes: list[str] = []
        got = consensus(
            [CertaintyInterval(0.8, 1.0), CertaintyInterval(0.0, 0.3)],
            ConflictPolicy.LENIENT,
            diagnostics=notes,
        )
        assert got == TOTAL_IGNORANCE
        assert notes

    @given(st.lists(intervals(), min_size=1, max_size=5))
    def test_idempotent(self, sources):
        once = consensus(sources, ConflictPolicy.LENIENT)
        again = consensus([once], ConflictPolicy.LENIENT)
        assert again == once

    @given(st.lists(intervals(), min_size=2, max_size=5))
    def test_narrows_every_source(self, sources):
        got = consensus(sources, ConflictPolicy.LENIENT)
        if got != TOTAL_IGNORANCE:
            for s in sources:
                assert got.lower >= s.lower - TOL
                assert got.upper <= s.upper + TOL

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            consensus([])


class TestSimilarity:
    def test_similarity_from_distance(self):
        assert similarity_from_distance(0.0) == 1.0
        assert similarity_from_distance(1.0) == 0.0
        assert similarity_from_distance(0.25) == pytest.approx(0.75, abs=TOL)

    def test_rejects_unnormalised_distance(self):
        with pytest.raises(DomainError):
            similarity_from_distance(1.5)

    def test_transitivity_bound_is_family_conjunction(self):
        assert transitivity_bound(T1, 0.9, 0.8) == pytest.approx(0.7, abs=TOL)
        assert transitivity_bound(T3, 0.9, 0.8) == pytest.approx(0.8, abs=TOL)

    @given(families, unit_floats, unit_floats)
    def test_bound_never_exceeds_either_similarity(self, family, a, b):
        assert transitivity_bound(family, a, b) <= min(a, b) + TOL


def _clamp(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def _pair_reference(family, a: float, b: float) -> float:
    """Each family's conjunction of two values, written out pairwise."""
    if family is T1:
        return _clamp(a + b - 1.0)
    if family is T1_5:
        r = math.sqrt(a) + math.sqrt(b) - 1.0
        return _clamp(r * r) if r > 0.0 else 0.0
    if family is T2:
        return a * b
    if family is T2_5:
        if a == 0.0 or b == 0.0:
            return 0.0
        return _clamp(1.0 / (1.0 / a + 1.0 / b - 1.0))
    return a if a < b else b


# Edge values (0, 1, tiny, next to 1) and a seeded sample of the interior.
_pair_rng = random.Random(4242)
PAIR_VALUES = [0.0, 1.0, 5e-324, 1e-300, 1e-16, 0.5, 1.0 - 1e-16, 0.25, 0.75] + [
    _pair_rng.random() for _ in range(30)
]


class TestPairsExactly:
    """Detachment and the transitivity bound equal the pairwise formulas exactly."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_detach_and_transitivity_bound(self, family):
        wrong = []
        for a in PAIR_VALUES:
            for b in PAIR_VALUES:
                expect = _pair_reference(family, a, b)
                lower = detach(family, a, 0.0, CertaintyInterval(b, 1.0)).lower
                upper = detach(family, 0.0, a, CertaintyInterval(0.0, b)).upper
                bound = transitivity_bound(family, a, b)
                if lower != expect:
                    wrong.append(("detach lower", a, b, lower, expect))
                if upper != 1.0 - _pair_reference(family, a, 1.0 - b):
                    wrong.append(("detach upper", a, b, upper))
                if bound != expect:
                    wrong.append(("transitivity_bound", a, b, bound, expect))
        assert wrong == []


class TestFamilyTags:
    def test_labels_round_trip(self):
        for fam in FAMILIES:
            assert TNormFamily.from_label(fam.label) is fam
        assert TNormFamily.from_label("T1.5") is T1_5

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError):
            TNormFamily.from_label("T9")

    def test_most_conservative(self):
        assert TNormFamily.most_conservative([T3, T1_5, T2]) is T1_5


def _left_to_right(terms) -> float:
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def _folded_tnorm(family, values) -> float:
    """n-ary T1.5 or T2.5 from its closed form, summed left to right."""
    excess = len(values) - 1
    if family is T1_5:
        r = _left_to_right(math.sqrt(v) for v in values) - excess
        return min(r * r, 1.0) if r > 0.0 else 0.0
    return min(1.0 / (_left_to_right(1.0 / v for v in values) - excess), 1.0)


class TestSummationOrder:
    """The closed n-ary forms sum their terms left to right.

    On each vector below an exactly rounded total of the terms differs
    from the left-to-right one, as does CPython 3.12's compensated
    ``sum``, so results would otherwise depend on the interpreter.
    """

    @pytest.mark.parametrize(
        "op, family, values",
        [
            ("tnorm", T1_5, (0.05, 0.75, 0.85)),
            ("tnorm", T2_5, (0.05, 0.15, 0.6)),
            ("tconorm", T1_5, (0.05, 0.1, 0.15)),
            ("tconorm", T2_5, (0.05, 0.1, 0.1)),
        ],
    )
    def test_matches_left_to_right_fold(self, op, family, values):
        if op == "tnorm":
            args = values
            got, expected = tnorm(family, values), _folded_tnorm(family, values)
        else:
            args = tuple(1.0 - v for v in values)
            got, expected = _conorm(family, values), 1.0 - _folded_tnorm(family, args)
        terms = [math.sqrt(v) if family is T1_5 else 1.0 / v for v in args]
        assert math.fsum(terms) != _left_to_right(terms)
        assert got == expected


_NOT_FAMILIES = ["T2", None, []]


class TestNonFamilies:
    """Every step that takes a family names itself and the value it got."""

    @pytest.mark.parametrize("bad", _NOT_FAMILIES, ids=["label", "none", "unhashable"])
    @pytest.mark.parametrize(
        "op, call",
        [
            ("antecedent_eval", lambda f: antecedent_eval(f, [CERTAIN, TOTAL_IGNORANCE])),
            ("antecedent_eval", lambda f: antecedent_eval(f, [CERTAIN] * 3)),
            ("detach", lambda f: detach(f, 0.5, 0.5, CERTAIN)),
            ("aggregate", lambda f: aggregate(f, [CERTAIN, TOTAL_IGNORANCE])),
            ("aggregate", lambda f: aggregate(f, [CERTAIN] * 3)),
            ("tnorm", lambda f: tnorm(f, [0.5, 0.5])),
            ("transitivity_bound", lambda f: transitivity_bound(f, 0.5, 0.5)),
        ],
    )
    def test_a_non_family_is_named(self, op, call, bad):
        with pytest.raises(DomainError) as err:
            call(bad)
        assert str(err.value) == f"{op} needs a TNormFamily, got {bad!r}"

    @pytest.mark.parametrize("bad", _NOT_FAMILIES, ids=["label", "none", "unhashable"])
    def test_detach_checks_its_strengths_first(self, bad):
        with pytest.raises(DomainError, match="sufficiency 2.0 outside"):
            detach(bad, 2.0, 0.5, CERTAIN)
        with pytest.raises(DomainError, match="necessity must be a number"):
            detach(bad, 0.5, "x", CERTAIN)

    @pytest.mark.parametrize(
        "op, call, message",
        [
            ("antecedent_eval", antecedent_eval, "antecedent_eval of an empty clause list"),
            ("aggregate", aggregate, "aggregate of an empty path list"),
            ("tnorm", tnorm, "tnorm of an empty sequence"),
        ],
    )
    def test_an_empty_list_raises_after_the_family_check(self, op, call, message):
        with pytest.raises(DomainError) as err:
            call([], [])
        assert str(err.value) == f"{op} needs a TNormFamily, got []"
        with pytest.raises(DomainError) as err:
            call(T2, [])
        assert str(err.value) == message


def _nary(family, values) -> float:
    """The n-ary conjunctions as written before the two-argument forms
    existed: a fold for T1, closed sums run left to right for T1.5 and
    T2.5, ``math.prod`` for T2 and ``min`` for T3, each clamped."""
    if family is T1:
        acc = values[0]
        for v in values[1:]:
            acc = acc + v - 1.0
            if acc < 0.0:
                acc = 0.0
        return _clamp(acc)
    if family is T1_5:
        s = 0.0
        for v in values:
            s += math.sqrt(v)
        r = s - (len(values) - 1)
        return _clamp(r * r) if r > 0.0 else 0.0
    if family is T2:
        return _clamp(math.prod(values))
    if family is T2_5:
        s = 0.0
        for v in values:
            if v == 0.0:
                return 0.0
            s += 1.0 / v
        return _clamp(1.0 / (s - (len(values) - 1)))
    return min(values)


def _snapped(lo: float, hi: float):
    """``(lower.hex(), upper.hex())`` after forgiving a rounding-level
    inversion, or ``"conflict"`` for a larger one."""
    if lo > hi and lo - hi <= 1e-12:
        hi = lo
    return "conflict" if lo > hi else (lo.hex(), hi.hex())


def _reference(step, family, items):
    """What a step gave through the n-ary forms, for two or more items."""
    if step == "antecedent_eval":
        return _snapped(_nary(family, [c.lower for c in items]), _nary(family, [c.upper for c in items]))
    if step == "detach":
        s, n, premise = items
        return _snapped(_nary(family, (s, premise.lower)), 1.0 - _nary(family, (n, 1.0 - premise.upper)))
    if step == "aggregate":
        lo = 1.0 - _nary(family, [1.0 - p.lower for p in items])
        hi = 1.0 - (1.0 - _nary(family, [1.0 - (1.0 - p.upper) for p in items]))
        return _snapped(lo, hi)
    return _snapped(max(s.lower for s in items), min(s.upper for s in items))


def _outcome(call):
    try:
        interval = call()
    except (EvidenceConflictError, SourceConflictError):
        return "conflict"
    return (interval.lower.hex(), interval.upper.hex())


# Zero, one, the least subnormal and the float just below one, beside the rest.
_edge_floats = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53]), unit_floats)


@st.composite
def _edge_intervals(draw) -> CertaintyInterval:
    a, b = draw(_edge_floats), draw(_edge_floats)
    return CertaintyInterval(min(a, b), max(a, b))


class TestTwoArgumentForms:
    """The two-item steps give the n-ary forms' floats, bit for bit, and
    three items still take the closed forms."""

    @settings(max_examples=300, deadline=None)
    @given(family=families, a=_edge_floats, b=_edge_floats, n=_edge_floats, p=_edge_intervals(), q=_edge_intervals())
    def test_pairs_equal_the_nary_forms(self, family, a, b, n, p, q):
        assert _outcome(lambda: detach(family, a, n, p)) == _reference("detach", family, (a, n, p))
        assert _outcome(lambda: antecedent_eval(family, [p, q])) == _reference("antecedent_eval", family, [p, q])
        assert _outcome(lambda: aggregate(family, [p, q])) == _reference("aggregate", family, [p, q])
        assert _outcome(lambda: consensus([p, q])) == _reference("consensus", family, [p, q])
        assert transitivity_bound(family, a, b).hex() == _nary(family, (a, b)).hex()
        assert tnorm(family, [a, b]).hex() == _nary(family, (a, b)).hex()

    @settings(max_examples=200, deadline=None)
    @given(family=families, paths=st.lists(_edge_intervals(), min_size=3, max_size=3))
    def test_three_items_take_the_closed_forms(self, family, paths):
        for step, call in (
            ("antecedent_eval", lambda: antecedent_eval(family, paths)),
            ("aggregate", lambda: aggregate(family, paths)),
            ("consensus", lambda: consensus(paths)),
        ):
            assert _outcome(call) == _reference(step, family, paths), step
        values = [p.lower for p in paths]
        assert tnorm(family, values).hex() == _nary(family, values).hex()
