"""Embedding counts, generation, verification, and exhaustive cross-checks."""

from __future__ import annotations

from itertools import combinations

import pytest

from hubbardtree import (
    EmbeddedTree,
    EvilOrbitError,
    build_tree,
    classify_orbits,
    count_embeddings,
    enumerate_embeddings,
    euler_phi,
    generate_embedding,
    verify_embedding,
)
from hubbardtree.atlas import star_periodic_sequences
from hubbardtree.embedding import coprime_rotations
from hubbardtree.planar import _embed
from hubbardtree.sequences import StructuralError

FIG1 = "10110*"
FIG2 = "1011010110*"


class TestEulerPhi:
    @pytest.mark.parametrize("q,count", [(2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (12, 4)])
    def test_values(self, q, count):
        assert euler_phi(q) == count

    def test_brute_force_agreement(self):
        import math

        for q in range(1, 64):
            assert euler_phi(q) == sum(1 for i in range(1, q) if math.gcd(i, q) == 1)


class TestCountEmbeddings:
    def test_evil_tree_has_none(self):
        assert count_embeddings(build_tree(FIG1)) == 0

    def test_fig2_has_two(self):
        assert count_embeddings(build_tree(FIG2)) == 2

    def test_arc_tree_has_one(self):
        assert count_embeddings(build_tree("10*")) == 1

    def test_four_armed_fixed_point_has_two(self):
        assert count_embeddings(build_tree("111*")) == 2


class TestGenerateEmbedding:
    def test_both_rotations_give_valid_distinct_embeddings(self):
        tree = build_tree(FIG2)
        first = generate_embedding(tree, {"z5.0": 1})
        second = generate_embedding(tree, {"z5.0": 2})
        assert verify_embedding(first)
        assert verify_embedding(second)
        assert first.canonical_cyclic_order() != second.canonical_cyclic_order()
        assert first.canonical_cyclic_order()["z5.0"] != second.canonical_cyclic_order()["z5.0"]

    def test_rejects_evil_tree(self):
        with pytest.raises(EvilOrbitError) as excinfo:
            generate_embedding(build_tree(FIG1), {})
        assert excinfo.value.periods == [3]

    def test_rejects_non_coprime_rotation(self):
        tree = build_tree("111*")  # four-armed fixed branch point
        z = classify_orbits(tree)[0].characteristic
        with pytest.raises(ValueError):
            generate_embedding(tree, {z: 2})

    def test_rejects_wrong_rotation_keys(self):
        tree = build_tree(FIG2)
        with pytest.raises(ValueError):
            generate_embedding(tree, {"c0": 1})


class TestVerifyEmbedding:
    def test_construction_invariant(self):
        for text in (FIG2, "111*", "110*"):
            for embedded in enumerate_embeddings(build_tree(text)):
                assert verify_embedding(embedded)

    def test_trivial_tree_any_order_passes(self):
        tree = build_tree("10*")
        embedded = EmbeddedTree(
            tree, {v.id: tuple(tree.neighbors(v.id)) for v in tree.vertices}, {})
        assert verify_embedding(embedded)

    def test_inconsistent_swap_along_orbit_fails(self):
        # re-ordering the arms at one non-characteristic orbit point breaks
        # the cyclic-order compatibility with its image
        tree = build_tree(FIG2)
        embedded = generate_embedding(tree, {"z5.0": 1})
        orders = dict(embedded.cyclic_order)
        target = "z5.1"
        arms = orders[target]
        orders[target] = (arms[0], arms[2], arms[1])
        mutated = EmbeddedTree(tree, orders, dict(embedded.rotations))
        assert not verify_embedding(mutated)


class TestPullBackWalk:
    def test_branch_cycle_without_characteristic_order_raises(self):
        # no rotation given for the period-5 cycle: the walk from any of its
        # points never meets a known order and must stop instead of looping
        with pytest.raises(StructuralError):
            _embed(build_tree(FIG2), [], {})

    def test_any_swap_off_the_fixed_points_fails(self):
        # at a fixed branch point the swap can be the mirror embedding, which
        # passes (11* at z1.0); everywhere else the image's order is unchanged
        swaps = 0
        for seq in star_periodic_sequences(7):
            tree = build_tree(seq)
            if count_embeddings(tree) == 0:
                continue
            for embedded in enumerate_embeddings(tree):
                for vid in tree.branch_vertices():
                    if vid == tree.critical or tree.dynamics[vid] == vid:
                        continue
                    arms = embedded.cyclic_order[vid]
                    for i, j in combinations(range(len(arms)), 2):
                        swapped = list(arms)
                        swapped[i], swapped[j] = arms[j], arms[i]
                        orders = {**embedded.cyclic_order, vid: tuple(swapped)}
                        mutated = EmbeddedTree(tree, orders, embedded.rotations)
                        assert not verify_embedding(mutated), (str(seq), vid, i, j)
                        swaps += 1
        assert swaps == 240


class TestExhaustion:
    def test_rotation_tuples_exhaust_the_count(self):
        for seq in star_periodic_sequences(7):
            tree = build_tree(seq)
            expected = count_embeddings(tree)
            if expected == 0:
                with pytest.raises(EvilOrbitError):
                    enumerate_embeddings(tree)
                continue
            embeddings = enumerate_embeddings(tree)
            assert len(embeddings) == expected
            assert all(verify_embedding(e) for e in embeddings)
            canonical = {e.to_json() for e in embeddings}
            assert len(canonical) == expected

    def test_count_stays_below_the_period(self):
        for seq in star_periodic_sequences(7):
            assert count_embeddings(build_tree(seq)) < seq.period

    def test_coprime_rotation_lists(self):
        assert coprime_rotations(3) == [1, 2]
        assert coprime_rotations(4) == [1, 3]
        assert coprime_rotations(6) == [1, 5]
