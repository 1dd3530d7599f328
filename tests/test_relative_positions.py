"""Relative-positions oracle: the characteristic points sit on [c0, c1] in
period order, and each tame one lies between its own closest precritical
point and the next.

Let 1 = S_0 < S_1 < ... < S_r = n be the internal address of a sequence of
period n, and zeta_k the closest precritical point of step k (zeta_1 = c0,
zeta_n = c1).

* Law A (order): ordered by their place on the path from c0 to c1, the
  characteristic points of the spectrum's orbits have strictly increasing
  periods.
* Law B (tame interval): a tame orbit's period is an address entry S_k, and
  its characteristic point lies strictly between zeta_(S_k) and
  zeta_(S_(k+1)).

Evil characteristic points follow law A but not law B.  Both laws are
empirical: the source paper's abstract names the branch points' relative
positions among what the kneading sequence determines, but only the abstract
is at hand, so no lemma is cited.  Law A reads only the built tree's path
and the orbits' periods.  Law B asks the triod kernel about symbolic points
the builder did not lay out, through tests/reference.py.  The trees are the
session's corpus (conftest.py).
"""

from __future__ import annotations

from hubbardtree import OrbitKind, classify_orbits, internal_address
from reference import closest_precritical_itinerary, lies_between


def test_characteristic_points_lie_on_the_spine_in_period_order(corpus):
    assert len(corpus.trees) == 4095
    for tree in corpus.trees:
        place = {vid: i for i, vid in enumerate(tree.path(tree.critical, "c1"))}
        periods = [o.period for o in sorted(classify_orbits(tree),
                                             key=lambda o: place[o.characteristic])]
        assert all(a < b for a, b in zip(periods, periods[1:])), (str(tree.sequence), periods)


def test_tame_characteristic_point_lies_in_its_address_interval(corpus):
    checked = 0
    for tree in corpus.trees:
        seq = tree.sequence
        address = internal_address(seq).entries
        for orbit in classify_orbits(tree):
            if orbit.kind is OrbitKind.TAME:
                k = address.index(orbit.period)
                low, high = (closest_precritical_itinerary(seq, s) for s in address[k:k + 2])
                point = tree.point(orbit.characteristic).itinerary
                assert lies_between(seq, point, low, high), (str(seq), orbit.period)
                checked += 1
    assert checked == 3289
