"""Failure diagnostics and branch spectrum predictions."""

from __future__ import annotations

import pytest

from hubbardtree import (
    INFINITY,
    KneadingSequence,
    OrbitKind,
    branch_spectrum,
    evil_arm_count,
    failing_periods,
    fails_for_period,
    first_mismatch,
    internal_address,
    is_admissible,
    orbit_contains,
    tame_arm_count,
)
from hubbardtree.atlas import star_periodic_sequences


class TestFailureDiagnostics:
    def test_failing_case(self):
        diag = fails_for_period(KneadingSequence.parse("10110*"), 3)
        assert diag.fails
        assert (diag.cond1, diag.cond2, diag.cond3) == (True, True, True)

    def test_condition_one_alone_blocks(self):
        diag = fails_for_period(KneadingSequence.parse("101*"), 2)
        assert not diag.fails
        assert (diag.cond1, diag.cond2, diag.cond3) == (False, True, True)

    def test_condition_two_alone_blocks(self):
        diag = fails_for_period(KneadingSequence.parse("111*"), 2)
        assert not diag.fails
        assert (diag.cond1, diag.cond2, diag.cond3) == (True, False, True)

    def test_condition_three_alone_blocks(self):
        diag = fails_for_period(KneadingSequence.parse("101*"), 3)
        assert not diag.fails
        assert (diag.cond1, diag.cond2, diag.cond3) == (True, True, False)

    def test_serialization(self):
        record = fails_for_period(KneadingSequence.parse("10110*"), 3).to_dict()
        assert record == {"period": 3, "cond1": True, "cond2": True,
                          "cond3": True, "fails": True}


class TestFailingPeriods:
    def test_known_values(self):
        assert failing_periods(KneadingSequence.parse("10110*")) == [3]
        assert failing_periods(KneadingSequence.parse("1011010110*")) == []
        assert failing_periods(KneadingSequence.parse("10*")) == []

    def test_admissibility_flags(self):
        assert not is_admissible(KneadingSequence.parse("10110*"))
        assert is_admissible(KneadingSequence.parse("1011010110*"))
        assert is_admissible(KneadingSequence.parse("111*"))

    def test_period_one_never_fails(self):
        for seq in star_periodic_sequences(9):
            assert not fails_for_period(seq, 1).fails

    def test_nothing_fails_at_or_above_the_period(self):
        # formal scan far past the period: the bound m < n is never exercised
        for seq in star_periodic_sequences(8):
            for m in range(seq.period, 2 * seq.period + 1):
                assert not fails_for_period(seq, m).fails, (str(seq), m)


class TestEvilArmCount:
    def test_failing_period_three(self):
        assert evil_arm_count(KneadingSequence.parse("10110*"), 3) == 3

    def test_minimal_mismatch_gives_three_arms(self):
        # q = (rho - r)/m + 2 is 3 exactly when rho <= 2m; a mismatch at m+1
        # can never fail (r = 1 would force m onto the internal address), so
        # the minimal realized case is rho = 2m
        found = 0
        for seq in star_periodic_sequences(8):
            for m in failing_periods(seq):
                rho = first_mismatch(seq, m)
                assert rho != m + 1
                r = (rho - 1) % m + 1
                assert evil_arm_count(seq, m) == (rho - r) // m + 2
                if rho <= 2 * m:
                    assert evil_arm_count(seq, m) == 3
                    found += 1
        assert found > 0

    def test_constructed_family_from_base(self):
        # base 10*, completion 101 (3 stays off the address), s = 2 repeats:
        # the closure is 10110* and it fails at the base period with 3 arms
        completed = b"101"
        family = KneadingSequence(completed + b"10" + b"*")
        assert str(family) == "10110*"
        assert fails_for_period(family, 3).fails
        assert evil_arm_count(family, 3) == 3

    def test_rejects_non_failing_period(self):
        with pytest.raises(ValueError):
            evil_arm_count(KneadingSequence.parse("10110*"), 2)


class TestTameArmCount:
    def test_fig2_period_five(self):
        nu = KneadingSequence.parse("1011010110*")
        assert first_mismatch(nu, 5) == 11
        assert orbit_contains(nu, 1, 5)
        assert tame_arm_count(nu, 5) == 3

    def test_four_armed_fixed_point(self):
        assert tame_arm_count(KneadingSequence.parse("111*"), 1) == 4

    def test_arc_value(self):
        assert tame_arm_count(KneadingSequence.parse("10*"), 1) == 2

    def test_rejects_non_address_entry(self):
        with pytest.raises(ValueError):
            tame_arm_count(KneadingSequence.parse("10110*"), 3)


class TestBranchSpectrum:
    def test_evil_spectrum(self):
        entries = branch_spectrum(KneadingSequence.parse("10110*"))
        assert [(e.period, e.arms, e.kind) for e in entries] == [(3, 3, OrbitKind.EVIL)]
        assert str(entries[0].characteristic_itinerary) == "(101)"

    def test_tame_spectrum(self):
        entries = branch_spectrum(KneadingSequence.parse("1011010110*"))
        assert [(e.period, e.arms, e.kind) for e in entries] == [(5, 3, OrbitKind.TAME)]
        assert str(entries[0].characteristic_itinerary) == "(10110)"

    def test_empty_spectrum(self):
        assert branch_spectrum(KneadingSequence.parse("10*")) == []

    def test_spectrum_is_deterministic(self):
        for seq in star_periodic_sequences(8):
            assert branch_spectrum(seq) == branch_spectrum(seq)

    def test_entries_sit_below_the_period(self):
        for seq in star_periodic_sequences(9):
            for entry in branch_spectrum(seq):
                assert entry.period < seq.period
                assert entry.arms >= 3

    def test_kind_matches_address_of_characteristic_itinerary(self):
        # tame characteristic itineraries contain their period in their own
        # address; evil ones do not
        for seq in star_periodic_sequences(9):
            for entry in branch_spectrum(seq):
                itin_seq = KneadingSequence(entry.characteristic_itinerary.period)
                has_period = orbit_contains(itin_seq, 1, entry.period)
                assert has_period == (entry.kind is OrbitKind.TAME), str(seq)
