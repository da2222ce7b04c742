from __future__ import annotations

import math

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
    tconorm,
    tnorm,
    transitivity_bound,
)
from possum.errors import DomainError, EvidenceConflictError, SourceConflictError

from conftest import FAMILIES, GRID, TOL, families, intervals, unit_floats

T1, T1_5, T2, T2_5, T3 = FAMILIES


class TestIntervalType:
    def test_valid_construction(self):
        iv = CertaintyInterval(0.3, 0.9)
        assert iv.lower == 0.3
        assert iv.upper == 0.9

    def test_degenerate_point_interval(self):
        assert CertaintyInterval(0.5, 0.5).ignorance() == 0.0

    @pytest.mark.parametrize("lo,hi", [(0.9, 0.3), (-0.1, 0.5), (0.5, 1.1), (2.0, 3.0)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(DomainError):
            CertaintyInterval(lo, hi)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError):
            CertaintyInterval("a", 1.0)

    def test_coerces_ints(self):
        iv = CertaintyInterval(0, 1)
        assert isinstance(iv.lower, float) and iv.lower == 0.0
        assert isinstance(iv.upper, float) and iv.upper == 1.0

    def test_named_constants(self):
        assert TOTAL_IGNORANCE.ignorance() == 1.0
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

    @given(intervals())
    def test_ignorance_is_width(self, iv):
        assert iv.ignorance() == pytest.approx(iv.upper - iv.lower, abs=TOL)

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
        assert tconorm(family, [a, b]) == pytest.approx(expect, abs=TOL)

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
            assert tconorm(fam, [0.37]) == 0.37

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            tnorm(T2, [])
        with pytest.raises(DomainError):
            tconorm(T2, [])

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
            assert tconorm(family, [a, 0.0]) == pytest.approx(a, abs=1e-12)
            assert tconorm(family, [a, 1.0]) == pytest.approx(1.0, abs=1e-12)

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
        assert tconorm(family, vals) == dual

    @given(families, st.lists(unit_floats, min_size=1, max_size=6))
    def test_results_stay_in_unit_interval(self, family, vals):
        assert 0.0 <= tnorm(family, vals) <= 1.0
        assert 0.0 <= tconorm(family, vals) <= 1.0


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
            got, expected = tconorm(family, values), 1.0 - _folded_tnorm(family, args)
        terms = [math.sqrt(v) if family is T1_5 else 1.0 / v for v in args]
        assert math.fsum(terms) != _left_to_right(terms)
        assert got == expected
