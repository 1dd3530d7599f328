"""Local-dynamics oracle: the sequence alone says which critical orbit points
lie in which arm of a characteristic point, and how the first return cycles
those arms.

Take a branch orbit of period m with q arms in the tree of a sequence of
period n, and its characteristic point z.  Let A_j be the arm at z toward
c_((1 + j m) mod n) for j = 0, ..., q - 2, and A_c the arm toward c0.  Then
A_c, A_0, ..., A_(q-2) are pairwise distinct, so they are all q arms.  The
first return of a tame orbit sends A_j to A_(j+1), A_(q-2) to A_c and A_c to
A_0; that of an evil one fixes A_c and sends A_j to A_((j+1) mod (q-1)).

The law is empirical: the source paper's abstract names the local dynamics
among what the kneading sequence determines, but only the abstract is at
hand, so no lemma is cited.  The indices 1 + j m and the kind come from the
sequence alone, the arms from the built tree's paths, and the permutation is
the one classify_orbits reads the orbit kind from.  q enters only as the
number of arms the tree has at z.  The trees are the session's corpus
(conftest.py).
"""

from __future__ import annotations

from collections import Counter

from hubbardtree.admissibility import OrbitKind
from hubbardtree.tree import classify_orbits


def predicted_first_return(tree, period: int, kind: OrbitKind, z: str) -> dict[str, str]:
    """The first-return permutation of the arms at z that the law predicts."""
    n = tree.sequence.period
    toward_c0 = tree.arm_toward(z, tree.critical)
    cycle = [tree.arm_toward(z, f"c{(1 + j * period) % n}")
             for j in range(tree.degree(z) - 1)]
    if kind is OrbitKind.EVIL:
        return {toward_c0: toward_c0, **dict(zip(cycle, cycle[1:] + cycle[:1]))}
    cycle.append(toward_c0)
    return dict(zip(cycle, cycle[1:] + cycle[:1]))


def test_first_return_follows_the_critical_orbit(corpus):
    assert len(corpus.trees) == 4095
    kinds = Counter()
    for tree in corpus.trees:
        for entry, orbit in zip(tree.spectrum, classify_orbits(tree), strict=True):
            kinds[entry.kind] += 1
            z = orbit.characteristic
            predicted = predicted_first_return(tree, entry.period, entry.kind, z)
            where = (str(tree.sequence), entry.period)
            assert sorted(predicted) == sorted(tree.neighbors(z)), where  # q distinct arms
            assert orbit.permutation == predicted, where
    assert kinds == {OrbitKind.TAME: 3289, OrbitKind.EVIL: 473}
