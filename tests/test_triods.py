"""Triod calculus: hand-iterated examples, symmetry, and error paths."""

from __future__ import annotations

from itertools import permutations

import pytest

from hubbardtree import (
    Branch,
    Itinerary,
    KneadingSequence,
    Middle,
    TriodError,
    classify_triod,
    critical_orbit_itinerary,
)
ONES = Itinerary.periodic(b"1")


class TestHandIteratedExamples:
    def test_fixed_point_between_critical_pair(self):
        # period 2: the all-ones point separates the critical point from the
        # critical value; indices 1 and 3 are excluded alternately, no chops
        nu = KneadingSequence.parse("1*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 0), ONES, critical_orbit_itinerary(nu, 1), nu)
        assert result == Middle(2)

    def test_three_armed_fixed_point(self):
        # period 4: the three critical value shifts chop cyclically and the
        # recorded majority stays constant 1
        nu = KneadingSequence.parse("110*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 1),
            critical_orbit_itinerary(nu, 2),
            critical_orbit_itinerary(nu, 3), nu)
        assert result == Branch(ONES)

    def test_fixed_point_on_the_spine(self):
        nu = KneadingSequence.parse("10*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 0), critical_orbit_itinerary(nu, 1), ONES, nu)
        assert result == Middle(3)

    def test_immediate_separation_by_critical_point(self):
        # the critical point of 10* sits between the two ends of the arc
        nu = KneadingSequence.parse("10*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 0),
            critical_orbit_itinerary(nu, 1),
            critical_orbit_itinerary(nu, 2), nu)
        assert result == Middle(1)


class TestSymmetry:
    def test_middle_tracks_argument_permutation(self):
        nu = KneadingSequence.parse("10*")
        args = [critical_orbit_itinerary(nu, 0), critical_orbit_itinerary(nu, 1), ONES]
        for perm in permutations(range(3)):
            result = classify_triod(args[perm[0]], args[perm[1]], args[perm[2]], nu)
            assert result == Middle(perm.index(2) + 1)

    def test_branch_invariant_under_permutation(self):
        nu = KneadingSequence.parse("110*")
        args = [critical_orbit_itinerary(nu, k) for k in (1, 2, 3)]
        for perm in permutations(range(3)):
            result = classify_triod(args[perm[0]], args[perm[1]], args[perm[2]], nu)
            assert result == Branch(ONES)


class TestErrors:
    def test_rejects_equal_points(self):
        nu = KneadingSequence.parse("10*")
        c1 = critical_orbit_itinerary(nu, 1)
        with pytest.raises(TriodError):
            classify_triod(c1, c1, ONES, nu)

    def test_rejects_equal_points_in_disguise(self):
        # same stream spelled with a redundant preperiod normalizes equal
        nu = KneadingSequence.parse("10*")
        c1 = critical_orbit_itinerary(nu, 1)
        disguised = Itinerary(nu.word[:1], nu.word[1:] + nu.word[:1])
        assert disguised == c1
        with pytest.raises(TriodError):
            classify_triod(c1, disguised, ONES, nu)

    def test_rejects_stream_inconsistent_with_sequence(self):
        nu = KneadingSequence.parse("10*")
        bogus = Itinerary(b"1", b"*11")
        with pytest.raises(TriodError):
            classify_triod(bogus, ONES, critical_orbit_itinerary(nu, 1), nu)

    def test_simultaneous_stars_need_inconsistent_streams(self):
        # unreachable for validated inputs; forcing it requires skipping
        # validation with a stream that lies about what follows its STAR
        nu = KneadingSequence.parse("10*")
        lying = Itinerary(b"1", b"*00")
        honest = Itinerary(b"1", b"*10")
        with pytest.raises(TriodError, match="simultaneous"):
            classify_triod(lying, honest, ONES, nu, validate=False)


class TestAuxiliaryPoints:
    def test_preimage_pair_is_separated_by_critical_point(self):
        # the two preimages of the critical point lie on opposite sides
        nu = KneadingSequence.parse("10*")
        star_first = nu.word[-1:] + nu.word[:-1]
        in_zero = Itinerary(b"0", star_first)
        in_one = Itinerary(b"1", star_first)
        result = classify_triod(in_zero, in_one, critical_orbit_itinerary(nu, 0), nu)
        assert result == Middle(3)
