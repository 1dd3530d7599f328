"""Failure diagnostics and branch spectrum predictions."""

from __future__ import annotations

import json
from collections import Counter
from itertools import product

import pytest

import hubbardtree.admissibility as admissibility
from hubbardtree import (
    INFINITY,
    KneadingSequence,
    OrbitKind,
    StructuralError,
    branch_spectrum,
    failing_periods,
    fails_for_period,
    first_mismatch,
    internal_address,
    mismatch_orbit,
)
from hubbardtree.atlas import star_periodic_sequences
from hubbardtree.sequences import _facts
from reference import (
    diagnostic_dict,
    evil_arm_count,
    is_admissible,
    orbit_contains,
    tame_arm_count,
)


def reference_evil_arm_count(seq, m):
    """The evil arm count as its own closed form, kept as the oracle for
    the shared arm-count rule: first_mismatch(m) = (q-2)m + r, r in {1..m}."""
    diag = fails_for_period(seq, m)
    if not diag.fails:
        raise ValueError(f"{m} is not a failing period of {seq}")
    rho_m = first_mismatch(seq, m)
    r = (rho_m - 1) % m + 1
    q = (rho_m - r) // m + 2
    if q < 3:
        raise StructuralError(f"evil branch point of {seq} at period {m} has {q} arms")
    return q


def reference_tame_arm_count(seq, m):
    """The tame arm count as its own closed form: one arm fewer than the
    evil form when the residue orbit comes back through m."""
    if not orbit_contains(seq.word, 1, m):
        raise ValueError(f"{m} is not an internal-address entry of {seq}")
    rho_m = first_mismatch(seq, m)
    if rho_m is INFINITY:
        raise ValueError(f"first mismatch of {m} is infinite; no periodic point to count")
    r = (rho_m - 1) % m + 1
    if orbit_contains(seq.word, r, m):
        q = (rho_m - r) // m + 1
    else:
        q = (rho_m - r) // m + 2
    if q < 2:
        raise StructuralError(f"periodic point of {seq} at period {m} has {q} arms")
    return q


def reference_conditions(seq, m):
    """cond1-cond3 by definition, from mismatch_orbit and first_mismatch alone
    (a star-periodic sequence's walks end at a multiple of the period)."""
    cond1 = m not in mismatch_orbit(seq, 1)
    cond2 = all(first_mismatch(seq, k) <= m for k in range(1, m) if m % k == 0)
    rho_m = first_mismatch(seq, m)
    cond3 = rho_m is not INFINITY and m in mismatch_orbit(seq, (rho_m - 1) % m + 1)
    return cond1, cond2, cond3


def _outcome(count, seq, m):
    try:
        return count(seq, m)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


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

    def test_scan_matches_the_definition(self):
        # every star-periodic sequence of period <= 12, every m in 1..n+1
        seen = Counter()
        for seq in star_periodic_sequences(12):
            for m in range(1, seq.period + 2):
                diag = fails_for_period(seq, m)
                assert diag.period == m
                assert (diag.cond1, diag.cond2, diag.cond3) == reference_conditions(seq, m), (
                    str(seq), m)
                seen[diag.cond1, diag.cond2, diag.cond3] += 1
        # each combination but cond2 false at an address entry occurs
        assert sum(seen.values()) == 24_575 and len(seen) == 6

    def test_cond1_is_false_exactly_at_the_address_entries(self):
        # every star-periodic sequence of period <= 12: the periods m < n
        # where cond1 is false, then n, are the internal address
        seqs = star_periodic_sequences(12)
        assert len(seqs) == 2047
        for seq in seqs:
            below = [m for m in range(1, seq.period) if not fails_for_period(seq, m).cond1]
            assert (*below, seq.period) == internal_address(seq).entries, str(seq)

    def test_serialization(self):
        record = diagnostic_dict(fails_for_period(KneadingSequence.parse("10110*"), 3))
        assert record == {"period": 3, "cond1": True, "cond2": True,
                          "cond3": True, "fails": True}
        # the direct text is the compact sorted dump, for every flag combination
        for flags in product((False, True), repeat=3):
            diag = admissibility.FailureDiagnostic(7, *flags)
            assert diag.to_json() == json.dumps(diagnostic_dict(diag), sort_keys=True,
                                                separators=(",", ":")), flags


class TestFailingPeriods:
    def test_known_values(self):
        assert failing_periods(KneadingSequence.parse("10110*")) == [3]
        assert failing_periods(KneadingSequence.parse("1011010110*")) == []
        assert failing_periods(KneadingSequence.parse("10*")) == []

    def test_admissibility_flags(self):
        assert not is_admissible(KneadingSequence.parse("10110*"))
        assert is_admissible(KneadingSequence.parse("1011010110*"))
        assert is_admissible(KneadingSequence.parse("111*"))

    def test_failing_periods_are_the_evil_orbit_periods(self):
        # every star-periodic sequence of period <= 12
        seqs = star_periodic_sequences(12)
        assert len(seqs) == 2047
        for seq in seqs:
            evil = [e.period for e in branch_spectrum(seq) if e.kind is OrbitKind.EVIL]
            assert failing_periods(seq) == evil, str(seq)

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
        assert orbit_contains(nu.word, 1, 5)
        assert tame_arm_count(nu, 5) == 3

    def test_four_armed_fixed_point(self):
        assert tame_arm_count(KneadingSequence.parse("111*"), 1) == 4

    def test_arc_value(self):
        assert tame_arm_count(KneadingSequence.parse("10*"), 1) == 2

    def test_rejects_non_address_entry(self):
        with pytest.raises(ValueError):
            tame_arm_count(KneadingSequence.parse("10110*"), 3)


class TestArmCountsAgainstReference:
    def test_shared_rule_matches_both_closed_forms(self):
        seqs = star_periodic_sequences(12)
        assert len(seqs) == 2047
        kinds = Counter()
        for seq in seqs:
            for m in range(1, seq.period + 2):
                for count, reference in [(evil_arm_count, reference_evil_arm_count),
                                         (tame_arm_count, reference_tame_arm_count)]:
                    expected = _outcome(reference, seq, m)
                    assert _outcome(count, seq, m) == expected, (str(seq), m, count.__name__)
                    if isinstance(expected, int):
                        kinds[count.__name__, expected] += 1
                    else:
                        kinds[count.__name__, expected[0], "infinite" in expected[1]] += 1
        assert sum(kinds.values()) == 49_150
        # arm counts 2 to 4 and every ValueError occur
        assert {("evil_arm_count", 3), ("evil_arm_count", 4),
                ("evil_arm_count", ValueError, False),
                ("tame_arm_count", 2), ("tame_arm_count", 3), ("tame_arm_count", 4),
                ("tame_arm_count", ValueError, False),
                ("tame_arm_count", ValueError, True)} <= set(kinds), kinds


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

    @pytest.mark.parametrize("text", ["10110*", "1011010110*"])
    def test_one_diagnostic_per_period(self, monkeypatch, text):
        # one evil orbit (period 3) and one tame orbit (period 5): each
        # candidate period is diagnosed once, and the entries read that pass
        calls = Counter()
        for name in ("fails_for_period", "failing_periods"):
            def counted(*args, _name=name, _original=getattr(admissibility, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(admissibility, name, counted)
        _facts.cache_clear()
        seq = KneadingSequence.parse(text)
        assert len(branch_spectrum(seq)) == 1
        assert calls == {"fails_for_period": seq.period - 1}

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
                # the period word is plain, so the walk is tests/reference.py's
                has_period = orbit_contains(entry.characteristic_itinerary.period, 1, entry.period)
                assert has_period == (entry.kind is OrbitKind.TAME), str(seq)
